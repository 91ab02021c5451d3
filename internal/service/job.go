package service

// Jobs: one admitted synthesis run each. Identical concurrent requests
// share a single job (singleflight), and every observer — the original
// submitter, deduplicated waiters, SSE streams — consumes the same
// append-only event log.

import (
	"fmt"
	"time"
)

// job is the server-side record of one synthesis run.
type job struct {
	run
	key string
	req *resolved
	// deadline is the per-job synthesis budget (0 = none).
	deadline time.Duration

	// Guarded by run.mu: the result payload on success.
	summary *Summary
	design  []byte
	// peerFilled marks a job that adopted a cluster peer's persisted
	// envelope instead of running synthesis (Response source "peerfill").
	peerFilled bool
}

func newJob(id, key, traceID string, req *resolved, deadline time.Duration) *job {
	j := &job{key: key, req: req, deadline: deadline}
	j.init(id, traceID, nil)
	return j
}

// finish records the job's outcome (the result payload only on
// success), publishes the terminal event and wakes every waiter.
func (j *job) finish(summary *Summary, design []byte, err error) {
	j.run.finish(err, nil, func() {
		if err == nil {
			j.summary, j.design = summary, design
		}
	})
}

// snapshot returns the job's state and result so far.
func (j *job) snapshot() (state JobState, summary *Summary, design []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.summary, j.design, j.err
}

func (j *job) statusBody() any {
	events := j.log.count()
	state, summary, _, err := j.snapshot()
	st := &JobStatus{JobID: j.id, Key: j.key, TraceID: j.traceID, State: state, Events: events, Summary: summary}
	if err != nil {
		st.Error = err.Error()
	}
	return st
}

// markPeerFilled records that the job was served by cluster peer-fill.
func (j *job) markPeerFilled() {
	j.mu.Lock()
	j.peerFilled = true
	j.mu.Unlock()
}

// jobID builds a short stable identifier from an admission sequence
// number and the content key.
func jobID(seq uint64, key string) string {
	suffix := key
	if i := len("sha256:"); len(suffix) > i+12 {
		suffix = suffix[i : i+12]
	}
	return fmt.Sprintf("j%d-%s", seq, suffix)
}
