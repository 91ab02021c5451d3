package service

// The /v1/explore workload: one POST submits a whole design-space grid,
// the server expands it into cells, converts each cell into exactly the
// request it would have accepted on /v1/synthesize (so per-cell content
// keys are byte-identical to standalone requests and every cache tier —
// memory LRU, persisted designs, singleflight dedup, the engine's
// floorplan-keyed ring cache — amplifies the grid for free), fans the
// cells over the exploration runner with per-cell isolation (one
// infeasible cell degrades or fails alone; the study always completes),
// and streams incremental Pareto-frontier updates over the same SSE
// machinery as job progress.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"xring/internal/explore"
)

// ExploreRequest is the POST /v1/explore body.
type ExploreRequest struct {
	Grid explore.Grid `json:"grid"`
	// CellDeadlineMS bounds each cell's synthesis (an expired cell is
	// recorded as a timeout; its siblings continue). Zero uses the
	// server's default deadline.
	CellDeadlineMS int64 `json:"cellDeadlineMS,omitempty"`
	// Async returns 202 + study id immediately; poll GET /v1/explore/{id}
	// or stream /v1/explore/{id}/events.
	Async bool `json:"async,omitempty"`
}

// CellStatus is one cell's record in the study status.
type CellStatus struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
	// Key is the cell's canonical content key — the same key the
	// equivalent /v1/synthesize request would get, usable directly
	// against GET /v1/designs/{key}.
	Key   string `json:"key"`
	JobID string `json:"jobID,omitempty"`
	// Source says how the cell was served: synthesized, cache (memory),
	// persist (disk tier) or dedup (attached to an in-flight job).
	Source string `json:"source,omitempty"`
	// Outcome classifies the completed cell: ok, degraded, timeout, error.
	Outcome string  `json:"outcome,omitempty"`
	DurMS   float64 `json:"durMS,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// ExploreStatus is the GET /v1/explore/{id} body (and the synchronous
// POST response).
type ExploreStatus struct {
	ID      string   `json:"id"`
	TraceID string   `json:"traceID,omitempty"`
	State   JobState `json:"state"`
	Cells   int      `json:"cells"`
	// Completed = OK + Degraded + Failed; Failed counts error and
	// timeout outcomes (degraded cells completed with a valid design).
	Completed int `json:"completed"`
	OK        int `json:"ok"`
	Degraded  int `json:"degraded"`
	Failed    int `json:"failed"`
	// CacheHits counts cells served from the memory or persist tier;
	// DedupHits counts cells that attached to an in-flight identical job.
	CacheHits    int             `json:"cacheHits"`
	DedupHits    int             `json:"dedupHits"`
	Events       int             `json:"events"`
	ElapsedMS    float64         `json:"elapsedMS,omitempty"`
	CellStatuses []CellStatus    `json:"cellStatuses"`
	Frontier     []explore.Point `json:"frontier,omitempty"`
}

// FrontierBody is the GET /v1/explore/{id}/frontier JSON body.
type FrontierBody struct {
	ID     string          `json:"id"`
	Size   int             `json:"size"`
	Points []explore.Point `json:"points"`
}

// exploration is the server-side record of one grid study.
type exploration struct {
	run
	frontier *explore.Frontier

	// Guarded by run.mu.
	cells     []CellStatus
	completed int
	ok        int
	degraded  int
	failed    int
	cacheHits int
	dedupHits int
	elapsedMS float64
}

// status snapshots the study for the HTTP surface. withFrontier adds
// the canonically sorted frontier points.
func (x *exploration) status(withFrontier bool) *ExploreStatus {
	events := x.log.count()
	x.mu.Lock()
	st := &ExploreStatus{
		ID: x.id, TraceID: x.traceID, State: x.state,
		Cells: len(x.cells), Completed: x.completed,
		OK: x.ok, Degraded: x.degraded, Failed: x.failed,
		CacheHits: x.cacheHits, DedupHits: x.dedupHits,
		Events: events, ElapsedMS: x.elapsedMS,
		CellStatuses: append([]CellStatus(nil), x.cells...),
	}
	x.mu.Unlock()
	if withFrontier {
		st.Frontier = x.frontier.Points()
	}
	return st
}

func (x *exploration) statusBody() any { return x.status(true) }

// exploreID builds a stable study identifier: an admission sequence
// number plus a digest of the expanded cell keys (the study's content
// identity — the same grid yields the same digest).
func exploreID(seq uint64, keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("x%d-%s", seq, hex.EncodeToString(h.Sum(nil))[:12])
}

// cellRequest converts one expanded cell into the /v1/synthesize
// request it is equivalent to. The floorplan's network spec is decoded
// through the same strict schema as a standalone request, and the
// resulting Request goes through the same resolve() + canonicalKey()
// path — which is what makes cell keys byte-identical to standalone
// keys by construction.
func cellRequest(g *explore.Grid, c explore.Cell) (*Request, error) {
	var net NetworkSpec
	if err := decodeStrict(bytes.NewReader(g.Floorplans[c.Floorplan].Network), &net); err != nil {
		return nil, fmt.Errorf("floorplan %d: decoding network: %w", c.Floorplan, err)
	}
	req := &Request{Network: net}
	o := &req.Options
	o.WithPDN = g.WithPDN
	o.Params = g.Params
	o.ShareWavelengths = c.Share
	o.DisableShortcuts = c.Policy.DisableShortcuts
	o.NoCSE = c.Policy.NoCSE
	o.NoOpenings = c.Policy.NoOpenings
	o.DisableConflicts = c.Policy.DisableConflicts
	if c.Sweep {
		o.Sweep = true
		o.Objective = c.Objective
	} else {
		o.MaxWL = c.Budget
	}
	return req, nil
}

// pointFor projects a cell's summary onto the frontier's objective
// space.
func pointFor(cellID, key string, sum *Summary) explore.Point {
	return explore.Point{
		CellID:      cellID,
		Key:         key,
		Degraded:    sum.Degraded,
		WorstILdB:   sum.WorstILdB,
		WorstSNRdB:  sum.WorstSNRdB,
		PowerMW:     sum.PowerMW,
		Wavelengths: sum.Wavelengths,
		MRRs:        sum.MRRs,
	}
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	traceID := traceRequest(w, r)
	var req ExploreRequest
	if !decodeBody(w, r, traceID, &req) {
		return
	}
	// The cell count is checked before the grid is expanded: a few KB of
	// axes can name millions of cells.
	size, err := req.Grid.Size()
	if err == nil && size > maxExploreCells {
		err = fmt.Errorf("grid expands to %d cells (max %d)", size, maxExploreCells)
	}
	var cells []explore.Cell
	if err == nil {
		cells, err = req.Grid.Expand()
	}
	if err != nil {
		mRequestsInvalid.Inc()
		writeErrorTraced(w, http.StatusBadRequest, err, traceID)
		return
	}
	// Resolve every cell up front: an invalid axis value fails the whole
	// study with a 400 naming the cell, before anything runs.
	rrs := make([]*resolved, len(cells))
	keys := make([]string, len(cells))
	for i, c := range cells {
		creq, cerr := cellRequest(&req.Grid, c)
		if cerr == nil {
			rrs[i], cerr = creq.resolve()
		}
		if cerr != nil {
			mRequestsInvalid.Inc()
			writeErrorTraced(w, http.StatusBadRequest, fmt.Errorf("cell %s: %w", c.ID, cerr), traceID)
			return
		}
		keys[i] = canonicalKey(rrs[i])
	}

	deadline := s.cfg.DefaultDeadline
	if req.CellDeadlineMS > 0 {
		deadline = time.Duration(req.CellDeadlineMS) * time.Millisecond
	}

	x := &exploration{frontier: explore.NewFrontier(), cells: make([]CellStatus, len(cells))}
	for i, c := range cells {
		x.cells[i] = CellStatus{Index: c.Index, ID: c.ID, Key: keys[i]}
	}
	x.init(exploreID(s.explores.next(), keys), traceID, map[string]any{"cells": len(cells)})
	if !s.admit(w, traceID, func() {
		s.explores.add(x)
		s.st.exploreStudies.Add(1)
		s.st.exploreCells.Add(int64(len(cells)))
	}) {
		return
	}
	go s.runExploration(x, cells, rrs, keys, deadline)

	if s.explores.await(w, r, x, req.Async, func() any { return x.status(false) }) {
		writeJSON(w, http.StatusOK, x.status(true))
	}
}

// maxExploreCells bounds one study's expansion (a typo'd axis must not
// mint a million-cell grid).
const maxExploreCells = 4096

// runExploration is the study controller, on its own goroutine
// (accounted in s.wg, so Drain waits for running studies like it waits
// for jobs).
func (s *Server) runExploration(x *exploration, cells []explore.Cell, rrs []*resolved, keys []string, deadline time.Duration) {
	defer s.wg.Done()
	x.start()

	// RunCells contains cell panics (each cell is additionally
	// isolated inside runCell); a study never fails as a whole.
	_ = explore.RunCells(context.Background(), cells, func(_ context.Context, c explore.Cell) {
		s.runCell(x, c, rrs[c.Index], keys[c.Index], deadline)
	})

	elapsedMS := float64(time.Since(x.started).Microseconds()) / 1000
	mExploreStudyMS.Observe(elapsedMS)
	x.finish(nil, map[string]any{"frontier": x.frontier.Size()}, func() { x.elapsedMS = elapsedMS })
}

// runCell executes one cell: cache tiers first, then admitJob's
// singleflight attach, or a direct engine run on the controller's
// goroutine (bypassing the admission queue — a study must not be able
// to wedge itself by filling the queue it is also draining). The
// completed cell's summary is offered to the frontier; errors and
// timeouts are recorded on the cell and the study continues.
func (s *Server) runCell(x *exploration, c explore.Cell, rr *resolved, key string, deadline time.Duration) {
	t0 := time.Now()
	var (
		summary *Summary
		cellErr error
		jobid   string
		source  string
	)
	if hit, tier, ok := s.cacheGet(key); ok {
		s.countCacheServe(tier)
		source = "cache"
		if tier == tierPersist {
			source = "persist"
		}
		summary, jobid = hit.summary, hit.jobID
	} else {
		j, attached, _ := s.admitJob(key, x.traceID, rr, deadline, false)
		if attached {
			source = "dedup"
			<-j.done
		} else {
			source = "synthesized"
			s.run(j)
		}
		jobid = j.id
		if _, sum, _, jerr := j.snapshot(); jerr != nil {
			cellErr = jerr
		} else {
			summary = sum
		}
	}
	durMS := float64(time.Since(t0).Microseconds()) / 1000
	outcome := classifyOutcome(summary, cellErr)
	mExploreCellMS.Observe(durMS)

	// Frontier insertion and the frontier event are atomic under x.mu,
	// so each streamed "frontier" event carries the exact frontier the
	// insertion produced — and the last one always equals the final,
	// order-independent frontier.
	x.mu.Lock()
	if summary != nil {
		if added, evicted := x.frontier.Insert(pointFor(c.ID, key, summary)); added {
			x.log.publish(Event{Type: "frontier", Attrs: map[string]any{
				"cell":    c.ID,
				"evicted": evicted,
				"size":    x.frontier.Size(),
				"points":  x.frontier.Points(),
			}})
		}
	}
	cs := &x.cells[c.Index]
	cs.JobID = jobid
	cs.Source = source
	cs.Outcome = outcome
	cs.DurMS = durMS
	x.completed++
	switch outcome {
	case outcomeOK:
		x.ok++
	case outcomeDegraded:
		x.degraded++
	default:
		x.failed++
	}
	switch source {
	case "cache", "persist":
		x.cacheHits++
	case "dedup":
		x.dedupHits++
	}
	if cellErr != nil {
		cs.Error = cellErr.Error()
	}
	x.mu.Unlock()

	switch outcome {
	case outcomeDegraded:
		mExploreCellsDegraded.Inc()
	case outcomeTimeout, outcomeError:
		s.st.exploreCellsFailed.Add(1)
	}
	ev := Event{Type: "cell", Stage: c.ID, DurMS: durMS, Attrs: map[string]any{
		"key":     key,
		"source":  source,
		"outcome": outcome,
	}}
	if cellErr != nil {
		ev.Error = cellErr.Error()
	}
	x.log.publish(ev)
}

// handleExploreFrontier serves the study's current Pareto frontier —
// canonically sorted and byte-deterministic for a given set of
// completed cells. ?format=csv renders the CSV export.
func (s *Server) handleExploreFrontier(w http.ResponseWriter, r *http.Request) {
	x, ok := s.explores.lookup(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := x.frontier.WriteCSV(w); err != nil {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	pts := x.frontier.Points()
	writeJSON(w, http.StatusOK, &FrontierBody{ID: x.id, Size: len(pts), Points: pts})
}
