package obs

// The flight recorder: an always-on, bounded ring buffer of the last N
// completed job records. Unlike the trace collector (opt-in, process
// global) it is meant to run in production at all times — one short
// critical section per *completed job*, no allocation per record
// beyond the caller-built JobRecord, and zero cost while idle — so an
// operator can always ask "what were the last jobs this daemon ran,
// and where did their time go?" after the fact.
//
// The service dumps it at GET /debug/flightrecorder and snapshots it
// to disk automatically when a job panics or trips the stage watchdog,
// so post-mortems survive the process.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// StageTiming is one engine stage of a recorded job.
type StageTiming struct {
	Name  string  `json:"name"`
	DurMS float64 `json:"durMS"`
}

// JobRecord is one completed job as stored by the flight recorder:
// identity (trace ID, job ID, content key), timing (wall-clock start,
// queue wait, total duration, per-stage spans) and the resilience
// annotations that explain an anomalous request after the fact.
type JobRecord struct {
	TraceID     string        `json:"traceID,omitempty"`
	JobID       string        `json:"jobID,omitempty"`
	Key         string        `json:"key,omitempty"`
	Start       time.Time     `json:"start"`
	QueueWaitMS float64       `json:"queueWaitMS,omitempty"`
	DurMS       float64       `json:"durMS"`
	Outcome     string        `json:"outcome"` // ok | degraded | timeout | error
	Error       string        `json:"error,omitempty"`
	Stages      []StageTiming `json:"stages,omitempty"`
	// Resilience annotations.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	Panic          bool   `json:"panic,omitempty"`
	Injected       bool   `json:"injected,omitempty"` // a resilience fault fired
}

// DefaultFlightRecords is the capacity used when NewFlightRecorder is
// given a non-positive size.
const DefaultFlightRecords = 256

// FlightRecorder is a fixed-capacity ring of JobRecords. All methods
// are safe for concurrent use; Record holds the lock only to copy one
// record into its slot.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []JobRecord
	next  int    // slot for the next record
	total uint64 // records ever written (>= len(buf) once wrapped)
}

// NewFlightRecorder builds a recorder keeping the last n completed
// jobs (DefaultFlightRecords when n <= 0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightRecords
	}
	return &FlightRecorder{buf: make([]JobRecord, 0, n)}
}

// Record appends one completed job, overwriting the oldest record once
// the ring is full.
func (r *FlightRecorder) Record(rec JobRecord) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total returns the number of records ever written (not capped).
func (r *FlightRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained records oldest-first.
func (r *FlightRecorder) Snapshot() []JobRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobRecord, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// FlightDump is the serialized snapshot envelope.
type FlightDump struct {
	// Total counts jobs ever recorded; len(Records) is capped at the
	// ring capacity, so Total - len(Records) jobs have been overwritten.
	Total   uint64      `json:"total"`
	Records []JobRecord `json:"records"`
}

// WriteSnapshot writes the snapshot as indented JSON (the
// /debug/flightrecorder body).
func (r *FlightRecorder) WriteSnapshot(w io.Writer) error {
	d := FlightDump{Records: r.Snapshot(), Total: r.Total()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// SnapshotToFile writes the snapshot into dir as
// flight-<reason>-<unix-nanos>.json (temp file + rename, so a reader
// racing the write never sees a torn file) and returns the path.
func (r *FlightRecorder) SnapshotToFile(dir, reason string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("flight-%s-%d.json", reason, time.Now().UnixNano()))
	tmp, err := os.CreateTemp(dir, "flight-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	if err := r.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}
