package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func TestContainerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 3)
	e.Section("hdr")
	e.Uvarint(42)
	e.Varint(-7)
	e.Int(123456)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.Bytes([]byte{0, 1, 2, 255})
	e.Int64s([]int64{-1, 0, 1, 1 << 40, -(1 << 40)})
	e.Int64s(nil)
	e.Ints([]int{3, 1, 4})
	e.Section("tail")
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), "TESTMAGC")
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if d.Version() != 3 {
		t.Fatalf("version = %d, want 3", d.Version())
	}
	d.Section("hdr")
	if got := d.Uvarint(); got != 42 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -7 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round-trip broken")
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{0, 1, 2, 255}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Int64s(); !reflect.DeepEqual(got, []int64{-1, 0, 1, 1 << 40, -(1 << 40)}) {
		t.Errorf("Int64s = %v", got)
	}
	if got := d.Int64s(); got != nil {
		t.Errorf("empty Int64s = %v, want nil", got)
	}
	if got := d.Ints(); !reflect.DeepEqual(got, []int{3, 1, 4}) {
		t.Errorf("Ints = %v", got)
	}
	d.Section("tail")
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestDecoderRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "MAGICONE", 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(bytes.NewReader(buf.Bytes()), "MAGICTWO"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic err = %v, want ErrCorrupt", err)
	}
}

func TestDecoderDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Section("data")
	e.Int64s([]int64{1, 2, 3, 4, 5})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip one payload bit (past magic+version, before the trailer).
	for flip := len("TESTMAGC") + 2; flip < len(data)-8; flip++ {
		mut := append([]byte(nil), data...)
		mut[flip] ^= 0x10
		d, err := NewDecoder(bytes.NewReader(mut), "TESTMAGC")
		if err != nil {
			continue // corruption already detected at open
		}
		d.Section("data")
		d.Int64s()
		if err := d.Close(); err == nil {
			t.Fatalf("flipping byte %d went undetected", flip)
		}
	}
}

func TestDecoderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Section("data")
	e.Bytes(bytes.Repeat([]byte{7}, 100))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	trunc := data[:len(data)-20]

	d, err := NewDecoder(bytes.NewReader(trunc), "TESTMAGC")
	if err != nil {
		return // truncated in the header, fine
	}
	d.Section("data")
	d.Bytes()
	if err := d.Close(); err == nil {
		t.Fatal("truncation went undetected")
	}
}

// TestDecoderForgedLengthAllocatesByData: a length prefix is a claim, not a
// reservation. A slice or byte string that announces 2^29 elements and brings
// a few fails when its data runs out, having allocated for firstAlloc elements
// and not for the number it gave; one that is as long as it says, beyond
// firstAlloc, arrives whole.
func TestDecoderForgedLengthAllocatesByData(t *testing.T) {
	for _, tag := range []byte{tagInt64s, tagBytes} {
		var buf bytes.Buffer
		e := NewEncoder(&buf, "TESTMAGC", 1)
		if err := e.w.Flush(); err != nil {
			t.Fatal(err)
		}
		forged := append(buf.Bytes(), tag, 0x80, 0x80, 0x80, 0x80, 0x02, 1, 2, 3) // 2^29 of them
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := NewDecoder(bytes.NewReader(forged), "TESTMAGC")
		if err != nil {
			t.Fatal(err)
		}
		if tag == tagInt64s {
			d.Int64s()
		} else {
			d.Bytes()
		}
		runtime.ReadMemStats(&after)
		if d.Err() == nil {
			t.Fatalf("tag %#x: a slice of 2^29 elements decoded from three bytes", tag)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 10*firstAlloc {
			t.Fatalf("tag %#x: %d bytes allocated for a forged length, want no more than %d elements' worth", tag, got, firstAlloc)
		}
	}

	long := make([]int64, 3*firstAlloc+5)
	for i := range long {
		long[i] = int64(i) - 7
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Int64s(long)
	e.Bytes(bytes.Repeat([]byte{1, 2, 3}, firstAlloc))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf, "TESTMAGC")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Int64s(); !reflect.DeepEqual(got, long) {
		t.Fatalf("a slice of %d elements came back as one of %d", len(long), len(got))
	}
	if got := d.Bytes(); len(got) != 3*firstAlloc || got[len(got)-1] != 3 {
		t.Fatalf("a byte string of %d came back as one of %d", 3*firstAlloc, len(got))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderSectionMismatch(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Section("alpha")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), "TESTMAGC")
	if err != nil {
		t.Fatal(err)
	}
	d.Section("beta")
	if err := d.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("section mismatch err = %v, want ErrCorrupt", err)
	}
}

func TestDecoderTagMismatch(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Uvarint(9)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), "TESTMAGC")
	if err != nil {
		t.Fatal(err)
	}
	d.Bytes() // wrong type: the stream holds a varint
	if err := d.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tag mismatch err = %v, want ErrCorrupt", err)
	}
}

func TestFileSinkAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	sink := &FileSink{Path: filepath.Join(dir, "ckpt")}

	var steps []int64
	sink.OnWrite = func(step int64) { steps = append(steps, step) }

	write := func(step int64, payload string) {
		t.Helper()
		err := sink.Checkpoint(step, func(w io.Writer) error {
			_, err := w.Write([]byte(payload))
			return err
		})
		if err != nil {
			t.Fatalf("Checkpoint(%d): %v", step, err)
		}
	}
	write(4, "first")
	write(8, "second")

	got, err := os.ReadFile(sink.Path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("checkpoint file holds %q, want the latest snapshot", got)
	}
	if sink.LastStep() != 8 {
		t.Fatalf("LastStep = %d, want 8", sink.LastStep())
	}
	if !reflect.DeepEqual(steps, []int64{4, 8}) {
		t.Fatalf("OnWrite steps = %v", steps)
	}

	// A failing snapshot leaves the previous checkpoint intact and no temp
	// litter behind.
	wantErr := errors.New("boom")
	if err := sink.Checkpoint(12, func(io.Writer) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("failing Checkpoint err = %v", err)
	}
	got, err = os.ReadFile(sink.Path)
	if err != nil || string(got) != "second" {
		t.Fatalf("after failed write: %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want just the checkpoint", len(ents))
	}
	if sink.LastStep() != 8 {
		t.Fatalf("LastStep after failure = %d, want 8", sink.LastStep())
	}

	if err := sink.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Remove(); err != nil {
		t.Fatalf("second Remove: %v", err)
	}
}
