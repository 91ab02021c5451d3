package service

// The lifecycle and registry shared by every asynchronous record the
// daemon serves: synthesize jobs, explore studies and whatif replays.
// Each kind embeds run (identity, event log, state, done channel) and
// keeps only its own result fields and status rendering; one registry
// per kind assigns the kind's ID sequence, answers its status and SSE
// routes, and retains records under one policy: past the kind's cap,
// the oldest finished record is evicted, and live records never are.

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// JobState is the lifecycle of a run.
type JobState string

// Run lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Retention caps: records kept per kind for status and event queries.
const (
	jobRetention     = 1024
	exploreRetention = 64
	whatifRetention  = 64
)

// run is the state every run kind shares.
type run struct {
	id string
	// traceID is the W3C trace ID of the admitting request (accepted
	// from its traceparent header or generated), immutable thereafter.
	traceID string
	// started is the admission instant.
	started time.Time
	log     eventLog
	// done closes when the run reaches a terminal state.
	done chan struct{}

	// mu guards state and err here plus the embedding kind's mutable
	// result fields.
	mu    sync.Mutex
	state JobState
	err   error
}

// init stamps the run's identity and publishes its "queued" event,
// whose attrs describe the admitted work.
func (r *run) init(id, traceID string, attrs map[string]any) {
	r.id = id
	r.traceID = traceID
	r.started = time.Now()
	r.log.traceID = traceID
	r.done = make(chan struct{})
	r.state = StateQueued
	r.log.publish(Event{Type: "queued", Attrs: attrs})
}

// start moves the run from queued to running.
func (r *run) start() {
	r.mu.Lock()
	r.state = StateRunning
	r.mu.Unlock()
	r.log.publish(Event{Type: "started"})
}

// finish moves the run to failed (err set) or done. set, if non-nil,
// stores the kind's result fields in the same critical section, so no
// reader sees a terminal state without its result. Then the terminal
// event is published ("done" carries doneAttrs) and every waiter woken.
func (r *run) finish(err error, doneAttrs map[string]any, set func()) {
	r.mu.Lock()
	r.err = err
	r.state = StateDone
	if err != nil {
		r.state = StateFailed
	}
	if set != nil {
		set()
	}
	r.mu.Unlock()
	if err != nil {
		r.log.publish(Event{Type: "failed", Error: err.Error()})
	} else {
		r.log.publish(Event{Type: "done", Attrs: doneAttrs})
	}
	close(r.done)
}

// terminal reports whether the run has finished.
func (r *run) terminal() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

func (r *run) base() *run { return r }

// record is a run kind as its registry sees it.
type record interface {
	base() *run
	// statusBody renders the kind's GET {path}{id} body.
	statusBody() any
}

// registry holds one kind's runs by ID, in admission order.
type registry[R record] struct {
	// path is the kind's route prefix, e.g. "/v1/jobs/".
	path string
	// notFound is the kind's 404 body ("unknown job", ...).
	notFound error
	limit    int
	seq      atomic.Uint64

	mu    sync.Mutex
	byID  map[string]R
	order []string
}

func newRegistry[R record](path, kind string, limit int) *registry[R] {
	return &registry[R]{
		path:     path,
		notFound: errors.New("unknown " + kind),
		limit:    limit,
		byID:     map[string]R{},
	}
}

// next allocates the kind's next admission sequence number.
func (g *registry[R]) next() uint64 { return g.seq.Add(1) }

// add registers a run, then evicts the oldest finished runs while the
// registry is over its cap. Live runs stay, even past the cap.
func (g *registry[R]) add(rec R) {
	id := rec.base().id
	g.mu.Lock()
	defer g.mu.Unlock()
	g.byID[id] = rec
	g.order = append(g.order, id)
	for i := 0; len(g.order) > g.limit && i < len(g.order); {
		if old := g.order[i]; g.byID[old].base().terminal() {
			delete(g.byID, old)
			g.order = append(g.order[:i], g.order[i+1:]...)
		} else {
			i++
		}
	}
}

// lookup resolves the request's {id}, answering 404 with the kind's
// message when no run is retained under it.
func (g *registry[R]) lookup(w http.ResponseWriter, r *http.Request) (R, bool) {
	g.mu.Lock()
	rec, ok := g.byID[r.PathValue("id")]
	g.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, g.notFound)
	}
	return rec, ok
}

// handleStatus serves GET {path}{id}.
func (g *registry[R]) handleStatus(w http.ResponseWriter, r *http.Request) {
	if rec, ok := g.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, rec.statusBody())
	}
}

// handleEvents serves GET {path}{id}/events as SSE.
func (g *registry[R]) handleEvents(w http.ResponseWriter, r *http.Request) {
	if rec, ok := g.lookup(w, r); ok {
		streamLog(w, r, &rec.base().log)
	}
}

// await answers the request that admitted a run. An async request gets
// 202, a Location header and the accepted body. A synchronous one
// blocks until the run finishes (true) or the client goes away (false;
// the run carries on and stays queryable by id).
func (g *registry[R]) await(w http.ResponseWriter, r *http.Request, rec R, async bool, accepted func() any) bool {
	b := rec.base()
	if async {
		w.Header().Set("Location", g.path+b.id)
		writeJSON(w, http.StatusAccepted, accepted())
		return false
	}
	select {
	case <-b.done:
		return true
	case <-r.Context().Done():
		return false
	}
}

// admit starts an explore study or whatif replay. Under s.mu it checks
// draining, runs register (record the run and count it) and accounts
// the run's goroutine in s.wg, so nothing starts once Drain has begun
// and Drain waits for everything admitted. A draining server answers
// 503 and register never runs.
func (s *Server) admit(w http.ResponseWriter, traceID string, register func()) bool {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		s.rejectDraining(w, traceID)
		return false
	}
	register()
	s.wg.Add(1)
	s.mu.Unlock()
	return true
}
