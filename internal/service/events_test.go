package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// stallWriter is an SSE ResponseWriter whose client stops reading at
// its first live event: the second Write blocks until release closes.
type stallWriter struct {
	hdr     http.Header
	buf     bytes.Buffer
	writes  int
	stalled chan struct{}
	release chan struct{}
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 2 {
		close(w.stalled)
		<-w.release
	}
	return w.buf.Write(p)
}

// TestStreamLogSlowSubscriberGetsEveryEvent pins the SSE delivery
// contract under backpressure: a subscriber that stalls while the run
// publishes far more events than any buffer holds still receives every
// event, in order, including the terminal one — and the stream then
// returns instead of waiting for the client to give up.
func TestStreamLogSlowSubscriberGetsEveryEvent(t *testing.T) {
	const total = 201
	l := &eventLog{traceID: "trace"}
	l.publish(Event{Type: "queued"})

	w := &stallWriter{hdr: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/whatif/w1/events", nil).WithContext(ctx)
	returned := make(chan struct{})
	go func() {
		streamLog(w, req, l)
		close(returned)
	}()

	l.publish(Event{Type: "fault"}) // the first live write stalls
	select {
	case <-w.stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never wrote its first live event")
	}
	for i := 2; i < total-1; i++ {
		l.publish(Event{Type: "fault"})
	}
	l.publish(Event{Type: "done"})
	close(w.release)

	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open 10s after its done event was published")
	}
	var seqs []int
	var last string
	sc := bufio.NewScanner(&w.buf)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		seqs = append(seqs, ev.Seq)
		last = ev.Type
	}
	if len(seqs) != total || last != "done" {
		t.Fatalf("stream wrote %d events ending in %q, want %d ending in done", len(seqs), last, total)
	}
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("event %d has seq %d: stream out of order", i, seq)
		}
	}
}
