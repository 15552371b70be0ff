package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// JournalSchema identifies the journal's JSONL layout. The first line of
// every journal file is a record with Ev "schema" carrying this string.
const JournalSchema = "dpplaced-journal/v1"

// Journal event kinds, in the order a job can emit them.
const (
	// EvSchema is the file header record.
	EvSchema = "schema"
	// EvSubmit admits a job: carries the full spec, the job id and the
	// submission sequence number. Written before the job enters the queue.
	EvSubmit = "submit"
	// EvStart begins an attempt: carries the attempt number and the worker
	// grant. A start without a matching terminal record means the daemon
	// died mid-attempt; replay requeues the job.
	EvStart = "start"
	// EvRetry ends a failed attempt that will be retried with damped
	// options: carries the attempt's result, the error and its taxonomy
	// class included.
	EvRetry = "retry"
	// EvDone ends a job successfully: carries the attempt's result — the
	// final HPWL, whether it is a deadline-checkpointed partial, and the
	// error, empty unless a checkpointed run erred at its deadline.
	EvDone = "done"
	// EvFail ends a job in terminal failure: carries the attempt's result.
	EvFail = "fail"
	// EvCancel ends a job by client request. Canceled mid-run, it carries
	// the attempt's result; canceled while queued, the error and partial
	// flag the job already showed.
	EvCancel = "cancel"
	// EvInterrupt ends an attempt because the daemon drained before it
	// finished: the job checkpointed its best iterate and must be requeued
	// by the next daemon instance.
	EvInterrupt = "interrupt"
	// EvRequeue marks a replayed job being put back on the queue at startup.
	EvRequeue = "requeue"
	// EvDrain marks a graceful shutdown of the daemon itself.
	EvDrain = "drain"
)

// Record is one journal line. Fields are a union across event kinds; each
// kind carries every field (*Job).apply reads from it, so replay rebuilds
// the view the live daemon showed. TMs is wall-clock milliseconds
// (informational only — replay never depends on it).
type Record struct {
	// Ev discriminates the record kind (the Ev* constants).
	Ev string `json:"ev"`
	// Schema is set on EvSchema records only.
	Schema string `json:"schema,omitempty"`
	// TMs is the wall-clock timestamp in Unix milliseconds.
	TMs int64 `json:"t_ms,omitempty"`
	// Job is the job id (absent on schema/drain records).
	Job string `json:"job,omitempty"`
	// Seq is the submission sequence number (EvSubmit).
	Seq uint64 `json:"seq,omitempty"`
	// Spec is the submitted job spec (EvSubmit).
	Spec *JobSpec `json:"spec,omitempty"`
	// Attempt numbers the execution attempt, starting at 1 (EvStart and
	// the records that end an attempt).
	Attempt int `json:"attempt,omitempty"`
	// Workers is the granted worker count (EvStart).
	Workers int `json:"workers,omitempty"`
	// Exit is the pipeline taxonomy class (records that end an attempt;
	// "canceled" on EvCancel).
	Exit string `json:"exit,omitempty"`
	// Error is the failure detail (records that end an attempt, and
	// EvCancel). On a terminal record "" clears an earlier retry's error.
	Error string `json:"error,omitempty"`
	// HPWL is the attempt's half-perimeter wirelength (records that end an
	// attempt; the view shows it from EvDone, EvFail and EvCancel).
	HPWL float64 `json:"hpwl,omitempty"`
	// Partial marks a best-iterate checkpoint result (records that end an
	// attempt, and EvCancel).
	Partial bool `json:"partial,omitempty"`
	// Checkpointed counts jobs that checkpointed instead of finishing
	// (EvDrain).
	Checkpointed int `json:"checkpointed,omitempty"`
}

// Journal is the append-only write-ahead log of the daemon. Every Append is
// written and fsynced before the state transition it describes takes effect,
// which is the whole crash-safety story: the on-disk journal is always at
// least as current as the daemon's in-memory state.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	onAppend func(fsyncSeconds float64)
}

// Instrument registers fn to be called after every successful Append with
// the fsync's wall time in seconds. fn runs outside the journal lock and
// must be safe for concurrent calls; nil clears the hook.
func (j *Journal) Instrument(fn func(fsyncSeconds float64)) {
	j.mu.Lock()
	j.onAppend = fn
	j.mu.Unlock()
}

// OpenJournal opens (creating if absent) the journal at dir/journal.jsonl,
// returning the journal and the replayed records of previous runs. A
// truncated trailing line — the signature of dying mid-write — is tolerated
// and dropped; any other unparsable line aborts, because a journal with
// corrupt interior records cannot be trusted to describe job state.
func OpenJournal(dir string) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	recs, err := replayFile(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	if len(recs) == 0 {
		if err := j.Append(Record{Ev: EvSchema, Schema: JournalSchema}); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, recs, nil
}

// replayFile reads every parsable record of an existing journal.
func replayFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read journal: %w", err)
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			// Only the final line may be garbage (a write cut off by the
			// crash this journal exists to survive).
			if !scannerAtEOF(sc) {
				return nil, fmt.Errorf("serve: journal %s line %d: %w", path, line, err)
			}
			break
		}
		if rec.Ev == EvSchema {
			if rec.Schema != JournalSchema {
				return nil, fmt.Errorf("serve: journal %s: schema %q, want %q",
					path, rec.Schema, JournalSchema)
			}
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: journal %s: %w", path, err)
	}
	return recs, nil
}

// scannerAtEOF reports whether sc has no further tokens — i.e. the line just
// returned was the last one.
func scannerAtEOF(sc *bufio.Scanner) bool {
	return !sc.Scan()
}

// Append stamps, writes and fsyncs one record. The fsync is deliberate:
// journal records are rare (a handful per job) and each one is a promise to
// a future daemon instance about what happened.
func (j *Journal) Append(rec Record) error {
	rec.TMs = obs.UnixMilli()
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: marshal journal record: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return fmt.Errorf("serve: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(b); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("serve: append journal: %w", err)
	}
	sw := obs.StartStopwatch()
	if err := j.f.Sync(); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("serve: sync journal: %w", err)
	}
	fsyncSec := sw.Seconds()
	hook := j.onAppend
	j.mu.Unlock()
	if hook != nil {
		hook(fsyncSec)
	}
	return nil
}

// Close flushes and closes the journal file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("serve: close journal: %w", err)
	}
	return nil
}
