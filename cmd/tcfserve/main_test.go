package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// postJSON sends one /run request and returns the status and decoded body.
func postJSON(t *testing.T, client *http.Client, url, tenant string, body map[string]any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/run", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	res, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, out
}

// TestServeSIGTERMIntegration is the end-to-end smoke: boot the real server
// on a loopback port, drive corpus programs plus hostile ones (quota
// exceeding, vet-rejected) over HTTP, then SIGTERM the process and assert a
// clean drain with no leaked goroutines. Every wait is on something the test
// observes — the listen address, run's return, the goroutine count — and
// its deadline only bounds the report; the corpus programs run for
// milliseconds against the 5 s wall clock.
func TestServeSIGTERMIntegration(t *testing.T) {
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-max-steps", "20000",
			"-max-wall-clock", "5s",
			"-drain-timeout", "2s",
			"-quiet",
		}, io.Discard, func(addr string) { addrCh <- addr })
	}()
	var url string
	select {
	case addr := <-addrCh:
		url = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	client := &http.Client{Transport: &http.Transport{}}

	// A slice of the real corpus, end to end.
	files, err := filepath.Glob(filepath.Join("..", "..", "internal", "codegen", "testdata", "*.te"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, f := range files[:5] {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		status, out := postJSON(t, client, url, "corpus", map[string]any{
			"name": filepath.Base(f), "source": string(src),
		})
		if status != http.StatusOK || out["outcome"] != "ok" {
			t.Fatalf("%s: status %d outcome %v (%v)", f, status, out["outcome"], out["error"])
		}
	}

	// Hostile: a program asking for more thickness than the default tenant
	// quota (64Ki), a quota burner, and a vet-rejected discipline violation.
	// The thickness demand is proven by the cost predictor, which bounces the
	// program at admission with 412. The step quota (20000 via the flag
	// above) lies beyond the predictor's fuel, as the production default
	// does: the spin loop's prediction runs dry, the program is admitted and
	// dies on the runtime quota.
	status, out := postJSON(t, client, url, "hostile", map[string]any{
		"source": `func main() { #131072; thick int v = tid; print(radd(v)); }`,
	})
	if status != http.StatusPreconditionFailed || out["outcome"] != "predicted-over-quota" {
		t.Fatalf("thickness hog (predicted): status %d outcome %v", status, out["outcome"])
	}
	burner := `shared int b[1] @ 900; func main() { int n = 0; while (1) { n += 1; b[0] = n; } }`
	status, out = postJSON(t, client, url, "hostile", map[string]any{"source": burner})
	if status != http.StatusForbidden || out["outcome"] != "quota-exceeded" {
		t.Fatalf("quota burner (runtime): status %d outcome %v", status, out["outcome"])
	}
	status, out = postJSON(t, client, url, "hostile", map[string]any{
		"source": `shared int a[2] @ 100; func main() { #8; a[tid == 3] = tid; }`,
	})
	if status != http.StatusUnprocessableEntity || out["outcome"] != "vet-rejected" {
		t.Fatalf("vet reject: status %d outcome %v", status, out["outcome"])
	}

	// Metrics reflect the traffic.
	res, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	var snap struct {
		Outcomes map[string]int64 `json:"outcomes"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Outcomes["ok"] != 5 || snap.Outcomes["predicted-over-quota"] != 1 ||
		snap.Outcomes["quota-exceeded"] != 1 || snap.Outcomes["vet-rejected"] != 1 {
		t.Fatalf("metrics: %s", raw)
	}

	// Everything is settled; fix the leak baseline (the machine's
	// process-lifetime worker pools are already warm), then pull the plug.
	client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}

	if _, err := client.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after drain")
	}

	// Zero leaked goroutines: back to (at most) the pre-SIGTERM baseline,
	// which itself included the serving goroutines that must now be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n < baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, n, buf[:m])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServeFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-addr"}, &buf, nil); err == nil {
		t.Fatal("missing flag value accepted")
	}
	if err := run([]string{"stray"}, &buf, nil); err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("stray argument: %v", err)
	}
	if err := run([]string{"-addr", "256.256.256.256:99999"}, &buf, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
	// Every tenant runs the one engine configuration: no engine flags.
	for _, flag := range []string{"-backend", "-sched"} {
		if err := run([]string{flag, "fused"}, &buf, nil); err == nil || !strings.Contains(err.Error(), "not defined: "+flag) {
			t.Fatalf("%s: got %v, want an undefined-flag error", flag, err)
		}
	}
}

// TestMain doubles the test binary as a real tcfserve process for the
// SIGKILL crash-recovery test: SIGKILL cannot be trapped or forwarded, so
// the server under test must live in a child process the test can kill for
// real.
func TestMain(m *testing.M) {
	if os.Getenv("TCFSERVE_CRASH_CHILD") == "1" {
		args := strings.Split(os.Getenv("TCFSERVE_CRASH_ARGS"), "\x1f")
		if err := run(args, os.Stderr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "tcfserve child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startServerProcess re-execs the test binary as a tcfserve child over
// recoverDir and waits for its listen address on stderr.
func startServerProcess(t *testing.T, recoverDir string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-recover-dir", recoverDir,
		"-checkpoint-every", "4096",
		"-max-steps", "16777216",
		"-max-wall-clock", "60s",
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"TCFSERVE_CRASH_CHILD=1",
		"TCFSERVE_CRASH_ARGS="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child server never became ready")
		return nil, ""
	}
}

// crashSrc runs a few seconds: long enough for the parent to observe a
// checkpoint on disk and SIGKILL the server strictly mid-run, short enough
// for recovery to finish it promptly. Every iteration commits a shared
// write, so the watchdog sees progress.
const crashSrc = `
shared int beat[1] @ 900;
func main() {
	int i = 0;
	while (i < 300000) {
		beat[0] = beat[0] + 1;
		i += 1;
	}
	print(beat[0]);
}
`

// TestServeSIGKILLCrashRecovery is the crash-recovery acceptance test: a
// run is mid-flight when the server is SIGKILLed; a second server over the
// same -recover-dir must replay the journal during startup, resume the run
// from its last checkpoint, finish it, and answer the original
// X-Request-Id idempotently.
func TestServeSIGKILLCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("forks server processes; skipped in -short mode")
	}
	dir := t.TempDir()
	child, url := startServerProcess(t, dir)

	// Fire the run that will be interrupted.
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		body, _ := json.Marshal(map[string]any{"name": "doomed", "source": crashSrc})
		req, err := http.NewRequest("POST", url+"/run", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("X-Request-Id", "crash-1")
		req.Header.Set("X-Tenant", "alice")
		if res, err := http.DefaultClient.Do(req); err == nil {
			// The SIGKILL should sever this connection; a response here
			// means the run finished before the kill landed.
			res.Body.Close()
		}
	}()

	// Wait for the run's first durable checkpoint, then pull the plug. The
	// run goes on for seconds after it, so the kill lands mid-run unless
	// this process stays descheduled for that long; a loaded host slows the
	// child's run too, which only widens the window.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snaps, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			child.Process.Kill()
			child.Wait()
			t.Fatal("no checkpoint appeared; cannot kill mid-run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	<-posted

	// Restart over the same directory. NewRecovered finishes the lost run
	// before the listener comes up, so once we have the address the
	// recovery already happened.
	child2, url2 := startServerProcess(t, dir)
	defer func() {
		child2.Process.Signal(syscall.SIGTERM)
		child2.Wait()
	}()

	res, err := http.Get(url2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Recovery struct {
			Restores      int64 `json:"restores"`
			RecoveredRuns int64 `json:"recovered_runs"`
		} `json:"recovery"`
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Recovery.RecoveredRuns != 1 {
		t.Fatalf("recovered_runs = %d, want 1\n%s", snap.Recovery.RecoveredRuns, raw)
	}
	if snap.Recovery.Restores != 1 {
		t.Fatalf("restores = %d, want 1 (recovery re-ran from scratch instead of resuming)\n%s", snap.Recovery.Restores, raw)
	}

	// The original request id answers with the finished run's result.
	body, _ := json.Marshal(map[string]any{"name": "doomed", "source": crashSrc})
	req, err := http.NewRequest("POST", url2+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "crash-1")
	req.Header.Set("X-Tenant", "alice")
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || out["outcome"] != "ok" {
		t.Fatalf("recovered answer: %d %v (%v)", res.StatusCode, out["outcome"], out["error"])
	}
	outputs, _ := out["outputs"].([]any)
	if len(outputs) != 1 {
		t.Fatalf("recovered outputs: %v", out["outputs"])
	}
	values, _ := outputs[0].(map[string]any)["values"].([]any)
	if len(values) != 1 || values[0].(float64) != 300000 {
		t.Fatalf("recovered result %v, want [300000]", values)
	}
	// The settled run's checkpoint was cleaned up.
	if snaps, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.snap")); len(snaps) != 0 {
		t.Fatalf("checkpoints not cleaned up: %v", snaps)
	}
}
