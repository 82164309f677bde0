package serve

import (
	"bufio"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
)

// journalRecord is one line of the write-ahead run journal. An "accept"
// record is written after admission, before the run starts; a "done" record
// with the final response is written when the run finishes. A run whose
// accept has no matching done when the server restarts was lost to a crash
// and is recovered: resumed from its checkpoint file when one exists,
// re-executed from the journaled request otherwise.
type journalRecord struct {
	Kind    string       `json:"kind"` // "accept" | "done"
	ID      string       `json:"id"`
	Tenant  string       `json:"tenant,omitempty"`
	SrcHash string       `json:"src_hash,omitempty"` // sha256 of Req.Source (accept)
	Ckpt    string       `json:"ckpt,omitempty"`     // checkpoint file path (accept)
	Req     *runRequest  `json:"req,omitempty"`      // accept
	Status  int          `json:"status,omitempty"`   // done
	Resp    *runResponse `json:"resp,omitempty"`     // done
}

// runJournal is an append-only, fsync-per-record JSONL file. Appends are
// serialized; a torn final line from a crash mid-append is truncated away on
// open, so the journal is always a sequence of complete records.
type runJournal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal reads every complete record from path (creating the file if
// needed), truncates any torn tail, and returns the journal opened for
// appending.
func openJournal(path string) (*runJournal, []journalRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	var recs []journalRecord
	var valid int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail from a crash mid-append
		}
		recs = append(recs, rec)
		valid += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: reading journal %s: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &runJournal{f: f}, recs, nil
}

// append durably writes one record: marshal, write, fsync.
func (j *runJournal) append(rec *journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *runJournal) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
}

// completedRun is the memoized answer for one finished request id.
type completedRun struct {
	status int
	resp   *runResponse
}

// newRunID generates a server-side request id for clients that did not send
// an X-Request-Id of their own.
func newRunID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: reading random bytes: %v", err))
	}
	return "r-" + hex.EncodeToString(b[:])
}

// hashSource is the journal's source integrity stamp.
func hashSource(src string) string {
	h := sourceDigest(src)
	return hex.EncodeToString(h[:])
}

// ckptPath maps a request id (possibly client-chosen, so never trusted as a
// file name) to its checkpoint file inside RecoverDir.
func (s *Server) ckptPath(id string) string {
	h := sha256.Sum256([]byte(id))
	return filepath.Join(s.opts.RecoverDir, fmt.Sprintf("ckpt-%x.snap", h[:12]))
}

// completedResponse returns the memoized answer for a finished request id.
func (s *Server) completedResponse(id string) (completedRun, bool) {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	done, ok := s.completed[id]
	return done, ok
}

// beginRun marks a request id as in flight; false when it already is.
func (s *Server) beginRun(id string) bool {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	if _, dup := s.inflightIDs[id]; dup {
		return false
	}
	s.inflightIDs[id] = struct{}{}
	return true
}

func (s *Server) endRun(id string) {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	delete(s.inflightIDs, id)
}

// finishRun records a run's final answer: journal the done record, memoize
// it for idempotent replay, and delete the now-obsolete checkpoint file.
func (s *Server) finishRun(id string, status int, resp *runResponse) {
	if err := s.journal.append(&journalRecord{Kind: "done", ID: id, Status: status, Resp: resp}); err != nil {
		s.opts.Logf("serve: journaling done record for %s: %v", id, err)
	}
	s.idMu.Lock()
	s.completed[id] = completedRun{status: status, resp: resp}
	s.idMu.Unlock()
	os.Remove(s.ckptPath(id))
}

// initRecovery opens the journal, rebuilds the completed-run memo from done
// records, and synchronously finishes every run the previous process lost —
// from its last checkpoint when one survives, from the journaled request
// otherwise. It runs in NewRecovered, before the caller starts listening, so
// a recovered server comes up with no half-finished state.
func (s *Server) initRecovery() error {
	if err := os.MkdirAll(s.opts.RecoverDir, 0o755); err != nil {
		return err
	}
	j, recs, err := openJournal(filepath.Join(s.opts.RecoverDir, "journal.jsonl"))
	if err != nil {
		return err
	}
	s.journal = j

	var pending []journalRecord
	index := make(map[string]int) // id -> slot in pending
	for _, rec := range recs {
		switch rec.Kind {
		case "accept":
			if _, dup := index[rec.ID]; dup {
				continue
			}
			index[rec.ID] = len(pending)
			pending = append(pending, rec)
		case "done":
			if i, ok := index[rec.ID]; ok {
				pending[i].Kind = "" // settled
			}
			s.completed[rec.ID] = completedRun{status: rec.Status, resp: rec.Resp}
		}
	}
	for _, rec := range pending {
		if rec.Kind != "accept" {
			continue
		}
		s.opts.Logf("serve: recovering run %s (tenant %q, program %q)", rec.ID, rec.Tenant, rec.Req.Name)
		resp, status := s.recoverRun(&rec)
		resp.Tenant = rec.Tenant
		s.metrics.count(resp.Outcome)
		s.metrics.recovered.Add(1)
		s.finishRun(rec.ID, status, resp)
	}
	return nil
}

// recoverRun finishes one crashed run and returns the response its original
// request id will answer with from now on. It resumes from the run's
// checkpoint when a usable one survives; otherwise the run is deterministic,
// so re-executing the journaled request from scratch yields the same answer
// it would have produced.
func (s *Server) recoverRun(rec *journalRecord) (*runResponse, int) {
	if rec.Req == nil || hashSource(rec.Req.Source) != rec.SrcHash {
		return &runResponse{Outcome: outcomeInternal, Error: "journal: accept record failed its source-hash check"},
			http.StatusInternalServerError
	}
	return s.runAdmitted(context.Background(), rec.Req, rec.Tenant, s.limitsFor(rec.Tenant), rec.ID, rec.Ckpt)
}
