package service

// eventLog is the append-only event stream every run kind shares:
// publish stamps sequence numbers and wakes readers, and each SSE
// reader pulls the events past its own cursor — so a stream replays
// history and then follows live events without gaps, however slowly
// its client reads.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// Event is one progress entry of a run's stream: lifecycle transitions
// plus kind-specific progress ("stage" events per engine span finished
// under a job's context, "cell"/"frontier" for studies, "fault" for
// replays).
type Event struct {
	Seq int `json:"seq"`
	// TraceID is the run's request-scoped trace identity, stamped on
	// every event so SSE consumers can correlate streams with response
	// summaries and flight-recorder records.
	TraceID string         `json:"traceID,omitempty"`
	Type    string         `json:"type"` // queued | started | stage | done | failed
	Stage   string         `json:"stage,omitempty"`
	DurMS   float64        `json:"durMS,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Error   string         `json:"error,omitempty"`
}

type eventLog struct {
	// traceID is stamped on every published event (the admitting
	// request's trace identity); immutable after creation.
	traceID string

	mu     sync.Mutex
	events []Event
	// wake closes at the next publish; nil until a reader waits.
	wake chan struct{}
}

// publish appends an event (stamping its sequence number) and wakes
// every reader waiting for it. It never blocks on a reader.
func (l *eventLog) publish(ev Event) {
	ev.TraceID = l.traceID
	l.mu.Lock()
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
	l.mu.Unlock()
	mEventsPublished.Inc()
}

// since returns the events from index next on, plus a channel that
// closes at the first publish after this call. Published events are
// never modified, so the returned slice is safe to read unlocked.
func (l *eventLog) since(next int) ([]Event, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	n := len(l.events)
	return l.events[next:n:n], l.wake
}

// count returns the number of events published so far.
func (l *eventLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// streamLog serves a run's event log as Server-Sent Events: gapless
// replay of its history, then live events, until a terminal event
// ("done"/"failed") or client disconnect.
func streamLog(w http.ResponseWriter, r *http.Request, l *eventLog) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	for next := 0; ; {
		evs, wake := l.since(next)
		for _, ev := range evs {
			if writeSSE(w, ev) != nil {
				return
			}
			if ev.Type == "done" || ev.Type == "failed" {
				flusher.Flush()
				return
			}
		}
		next += len(evs)
		flusher.Flush()
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one event in SSE framing: the event name is the
// lifecycle type, the data line its JSON body.
func writeSSE(w http.ResponseWriter, ev Event) error {
	body, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, body)
	return err
}
