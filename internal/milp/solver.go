package milp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"xring/internal/obs"
)

// Solver counters (see OBSERVABILITY.md "Solver metrics").
var (
	mNodes      = obs.NewCounter("milp.nodes")
	mPropagated = obs.NewCounter("milp.propagated")
	mPruned     = obs.NewCounter("milp.pruned")
	mIncumbents = obs.NewCounter("milp.incumbents")
	mWarmStarts = obs.NewCounter("milp.warmstart.accepted")
)

// Solve minimizes the model exactly via a propagating branch-and-bound.
//
// The search keeps bitset-backed occurrence structures per constraint
// class (at-most-one "cliques", exactly-one "degrees", everything else
// generic), runs unit propagation to fixpoint after every decision, and
// prunes with an admissible bound combining the partition bound with
// the propagated fixings, plus dominance chains over identical columns.
// Once the optimum value is proved, the returned witness is re-derived
// by a deterministic canonical dive, so it is a pure function of the
// model and options. See DESIGN.md "Solver internals".
func Solve(m *Model, opt Options) (*Solution, error) {
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	c := compile(m)
	sh := newShared(maxNodes)

	var hintVals []bool
	hintObj := math.Inf(1)
	warm := false
	if opt.IncumbentHint != nil {
		if len(opt.IncumbentHint) != m.NumVars() {
			return nil, fmt.Errorf("milp: incumbent hint has %d values, model has %d vars",
				len(opt.IncumbentHint), m.NumVars())
		}
		if obj, ok := m.Check(opt.IncumbentHint); ok {
			hintVals = append([]bool(nil), opt.IncumbentHint...)
			hintObj = obj
			warm = true
			sh.offer(obj)
		}
	}

	// Phase 1: prove the optimum value. A leaf replaces the hint only
	// on strict Eps-improvement, so an exact tie keeps the hint.
	s := newSearcher(c, sh)
	s.initRoot()
	s.search()
	budgetHit := s.budgetHit
	found, bestObj, bestVals := warm, hintObj, hintVals
	if s.found && (!found || s.bestObj < bestObj-Eps) {
		found, bestObj, bestVals = true, s.bestObj, s.bestVals
	}

	nodes := int(sh.nodes)
	if !found {
		if !budgetHit {
			return nil, fmt.Errorf("%w (%d vars, %d constraints, %d nodes explored)",
				ErrInfeasible, m.NumVars(), m.NumConstraints(), nodes)
		}
		return nil, fmt.Errorf("%w (explored %d of %d nodes)", ErrBudget, nodes, maxNodes)
	}

	sol := &Solution{
		Objective:   bestObj,
		Values:      bestVals,
		Optimal:     !budgetHit,
		Propagated:  int(s.applies - s.decisions),
		Pruned:      int(s.pruned),
		WarmStarted: warm,
	}
	if !budgetHit {
		// Phase 2: canonical witness dive. The optimum value V is proved;
		// re-derive the returned assignment with a deterministic descent
		// that prunes only what provably exceeds V. Phase 1's witness
		// depends on the order incumbents improved and on the hint; the
		// dive returns the first optimum in the fixed branching order
		// instead. The dive gets its own node budget so it cannot depend
		// on how many nodes phase 1 consumed.
		dsh := newShared(maxNodes)
		d := newSearcher(c, dsh)
		d.initRoot()
		if d.dive(bestObj + Eps) {
			sol.Objective = d.bestObj
			sol.Values = d.bestVals
		}
		nodes += int(dsh.nodes)
		sol.Propagated += int(d.applies - d.decisions)
		sol.Pruned += int(d.pruned)
	}
	sol.Nodes = nodes
	sol.Incumbents = int(sh.incumbents)

	mNodes.Add(int64(sol.Nodes))
	mPropagated.Add(int64(sol.Propagated))
	mPruned.Add(int64(sol.Pruned))
	mIncumbents.Add(int64(sol.Incumbents))
	if warm {
		mWarmStarts.Inc()
	}
	return sol, nil
}

// compiled is the solver's immutable view of a model: constraints
// classified by structure, bitset occurrence masks, bound groups and
// dominance chains. Both phases of a solve share it read-only.
type compiled struct {
	m   *Model
	nv  int
	obj []float64

	// cliques are at-most-one rows (unit coefficients, <= 1);
	// degrees are exactly-one rows (unit coefficients, == 1).
	cliques   []bitset
	degrees   []bitset
	cliquesOf [][]int32 // var -> clique row indices
	degreesOf [][]int32 // var -> degree row indices

	// gens are the remaining constraints (indices into m.cons), kept
	// under windowed min/max feasibility propagation.
	gens   []int
	gensOf [][]int32 // var -> positions into gens

	// parts is a disjoint cover of degree rows used for the partition
	// lower bound; inPart marks their member variables.
	parts  []int32
	inPart bitset

	// halfDeg enables the assignment bound: when no objective
	// coefficient is negative and every variable appears in at most two
	// exactly-one rows (the out/in degree structure of the ring model),
	// half the sum over ALL unsatisfied degree rows of their cheapest
	// free member is admissible — each future 1-assignment can satisfy
	// at most two rows, so the sum double-counts by at most 2. This is
	// the classic row+column minima bound of the assignment relaxation
	// and is usually far tighter than the disjoint cover alone; the
	// solver takes the max of the two.
	halfDeg bool

	// negGroups are disjoint at-most-one groups over negative-objective
	// variables outside the partitions: each contributes min(0, cheapest
	// free member) to the bound instead of the whole sum. negSolo are the
	// ungrouped negatives.
	negGroups [][]int32
	negSolo   []int32

	// Dominance chains over identical columns: variables with the same
	// (row, coefficient) membership everywhere are interchangeable, so
	// an optimal solution exists with ones packed toward the cheaper end
	// of each chain. domSucc/domPred link chain neighbours (-1 = none);
	// propagation enforces x[pred] >= x[succ].
	domSucc []int32
	domPred []int32
}

func compile(m *Model) *compiled {
	nv := m.NumVars()
	c := &compiled{m: m, nv: nv, obj: m.obj, inPart: newBitset(nv)}

	type degRow struct {
		row  int32
		size int
	}
	var degRows []degRow
	for ci := range m.cons {
		con := &m.cons[ci]
		allUnit := len(con.Terms) > 0
		for _, t := range con.Terms {
			if t.Coef != 1 {
				allUnit = false
				break
			}
		}
		switch {
		case allUnit && con.Sense == LE && con.RHS >= float64(len(con.Terms))-Eps:
			// Trivially satisfied; contributes nothing.
		case allUnit && con.Sense == LE && con.RHS >= 1-Eps && con.RHS < 2-Eps:
			mask := newBitset(nv)
			for _, t := range con.Terms {
				mask.set(int32(t.Var))
			}
			c.cliques = append(c.cliques, mask)
		case allUnit && con.Sense == EQ && math.Abs(con.RHS-1) <= Eps:
			mask := newBitset(nv)
			for _, t := range con.Terms {
				mask.set(int32(t.Var))
			}
			c.degrees = append(c.degrees, mask)
			degRows = append(degRows, degRow{int32(len(c.degrees) - 1), len(con.Terms)})
		default:
			c.gens = append(c.gens, ci)
		}
	}

	c.cliquesOf = make([][]int32, nv)
	for ri, mask := range c.cliques {
		forEachBit(mask, func(v int32) bool {
			c.cliquesOf[v] = append(c.cliquesOf[v], int32(ri))
			return true
		})
	}
	c.degreesOf = make([][]int32, nv)
	for ri, mask := range c.degrees {
		forEachBit(mask, func(v int32) bool {
			c.degreesOf[v] = append(c.degreesOf[v], int32(ri))
			return true
		})
	}
	c.gensOf = make([][]int32, nv)
	for gi, ci := range c.gens {
		for _, t := range m.cons[ci].Terms {
			c.gensOf[t.Var] = append(c.gensOf[t.Var], int32(gi))
		}
	}

	c.halfDeg = len(c.degrees) > 1
	for v := 0; v < nv && c.halfDeg; v++ {
		if c.obj[v] < 0 || len(c.degreesOf[v]) > 2 {
			c.halfDeg = false
		}
	}

	// Partition cover: disjoint degree rows, largest first (stable).
	sort.SliceStable(degRows, func(i, j int) bool { return degRows[i].size > degRows[j].size })
	for _, g := range degRows {
		if countAnd(c.degrees[g.row], c.inPart) > 0 {
			continue
		}
		forEachBit(c.degrees[g.row], func(v int32) bool {
			c.inPart.set(v)
			return true
		})
		c.parts = append(c.parts, g.row)
	}

	// Negative-objective grouping outside the partitions.
	negMask := newBitset(nv)
	anyNeg := false
	for v := 0; v < nv; v++ {
		if c.obj[v] < 0 && !c.inPart.has(int32(v)) {
			negMask.set(int32(v))
			anyNeg = true
		}
	}
	if anyNeg {
		grouped := newBitset(nv)
		for _, mask := range c.cliques {
			var g []int32
			forEachAnd(mask, negMask, func(v int32) bool {
				if !grouped.has(v) {
					g = append(g, v)
				}
				return true
			})
			if len(g) >= 2 {
				for _, v := range g {
					grouped.set(v)
				}
				c.negGroups = append(c.negGroups, g)
			}
		}
		forEachBit(negMask, func(v int32) bool {
			if !grouped.has(v) {
				c.negSolo = append(c.negSolo, v)
			}
			return true
		})
	}

	// Dominance chains: group variables by their full column signature.
	cols := make([][]byte, nv)
	var scratch [12]byte
	for ci := range m.cons {
		for _, t := range m.cons[ci].Terms {
			binary.LittleEndian.PutUint32(scratch[0:4], uint32(ci))
			binary.LittleEndian.PutUint64(scratch[4:12], math.Float64bits(t.Coef))
			cols[t.Var] = append(cols[t.Var], scratch[:]...)
		}
	}
	c.domSucc = make([]int32, nv)
	c.domPred = make([]int32, nv)
	for v := range c.domSucc {
		c.domSucc[v] = -1
		c.domPred[v] = -1
	}
	classes := map[string][]int32{}
	var order []string
	for v := 0; v < nv; v++ {
		key := string(cols[v])
		if _, seen := classes[key]; !seen {
			order = append(order, key)
		}
		classes[key] = append(classes[key], int32(v))
	}
	for _, key := range order {
		g := classes[key]
		if len(g) < 2 {
			continue
		}
		sort.SliceStable(g, func(i, j int) bool { return c.obj[g[i]] < c.obj[g[j]] })
		for k := 0; k+1 < len(g); k++ {
			c.domSucc[g[k]] = g[k+1]
			c.domPred[g[k+1]] = g[k]
		}
	}
	return c
}

// shared is the solve-wide search state: the incumbent objective, the
// node count and the node budget.
type shared struct {
	best       float64
	nodes      int64
	incumbents int64
	maxNodes   int64
}

func newShared(maxNodes int) *shared {
	return &shared{best: math.Inf(1), maxNodes: int64(maxNodes)}
}

// offer installs obj as the incumbent if it improves on it.
func (sh *shared) offer(obj float64) {
	if obj < sh.best {
		sh.best = obj
		sh.incumbents++
	}
}

type pfix struct {
	v   int32
	val int8
}

var valueOrder = [2]int8{one, zero}

// searcher is the branch-and-bound state of one search phase: the
// partial assignment, per-row fixed/free counters, the undo trail and
// the propagation queues.
type searcher struct {
	c  *compiled
	sh *shared

	val      []int8
	free     bitset
	fixedObj float64

	cliqueOnes, cliqueFree []int32
	degOnes, degFree       []int32

	trail   []int32
	pend    []pfix
	dirty   []int32
	isDirty []bool

	found    bool
	bestObj  float64
	bestVals []bool

	applies, decisions, pruned int64
	budgetHit                  bool
}

func newSearcher(c *compiled, sh *shared) *searcher {
	s := &searcher{
		c:          c,
		sh:         sh,
		val:        make([]int8, c.nv),
		free:       newBitset(c.nv),
		cliqueOnes: make([]int32, len(c.cliques)),
		cliqueFree: make([]int32, len(c.cliques)),
		degOnes:    make([]int32, len(c.degrees)),
		degFree:    make([]int32, len(c.degrees)),
		isDirty:    make([]bool, len(c.gens)),
	}
	for v := int32(0); v < int32(c.nv); v++ {
		s.free.set(v)
	}
	for r, mask := range c.cliques {
		s.cliqueFree[r] = int32(mask.count())
	}
	for r, mask := range c.degrees {
		s.degFree[r] = int32(mask.count())
	}
	return s
}

// initRoot seeds the propagation queues for a search from the root:
// singleton exactly-one rows force their member, and every generic row
// is checked once.
func (s *searcher) initRoot() {
	c := s.c
	for r := range c.degrees {
		if s.degFree[r] == 1 && s.degOnes[r] == 0 {
			if v := firstAnd(c.degrees[r], s.free); v >= 0 {
				s.pend = append(s.pend, pfix{v, one})
			}
		}
	}
	for g := range c.gens {
		s.isDirty[g] = true
		s.dirty = append(s.dirty, int32(g))
	}
}

// apply fixes v to val, updating counters and enqueueing implied
// fixings. It reports false on contradiction. Already-fixed variables
// are consistency-checked, not re-applied. On contradiction every row
// counter is still fully updated — undo rewinds all rows of a trailed
// variable, so a partial update would corrupt the counts.
func (s *searcher) apply(v int32, val int8) bool {
	if s.val[v] != unset {
		return s.val[v] == val
	}
	s.val[v] = val
	s.free.clear(v)
	s.trail = append(s.trail, v)
	s.applies++
	c := s.c
	ok := true
	if val == one {
		s.fixedObj += c.obj[v]
		for _, r := range c.cliquesOf[v] {
			s.cliqueOnes[r]++
			s.cliqueFree[r]--
			if s.cliqueOnes[r] > 1 {
				ok = false
			} else if s.cliqueFree[r] > 0 {
				s.enqueueZeros(c.cliques[r])
			}
		}
		for _, r := range c.degreesOf[v] {
			s.degOnes[r]++
			s.degFree[r]--
			if s.degOnes[r] > 1 {
				ok = false
			} else if s.degFree[r] > 0 {
				s.enqueueZeros(c.degrees[r])
			}
		}
		if ok {
			if p := c.domPred[v]; p >= 0 && s.val[p] == unset {
				s.pend = append(s.pend, pfix{p, one})
			}
		}
	} else {
		for _, r := range c.cliquesOf[v] {
			s.cliqueFree[r]--
		}
		for _, r := range c.degreesOf[v] {
			s.degFree[r]--
			if s.degOnes[r] == 0 {
				if s.degFree[r] == 0 {
					ok = false
				} else if s.degFree[r] == 1 {
					if u := firstAnd(c.degrees[r], s.free); u >= 0 {
						s.pend = append(s.pend, pfix{u, one})
					}
				}
			}
		}
		if ok {
			if nx := c.domSucc[v]; nx >= 0 && s.val[nx] == unset {
				s.pend = append(s.pend, pfix{nx, zero})
			}
		}
	}
	for _, g := range c.gensOf[v] {
		if !s.isDirty[g] {
			s.isDirty[g] = true
			s.dirty = append(s.dirty, g)
		}
	}
	return ok
}

// enqueueZeros queues a zero-fix for every still-free member of mask.
func (s *searcher) enqueueZeros(mask bitset) {
	forEachAnd(mask, s.free, func(u int32) bool {
		s.pend = append(s.pend, pfix{u, zero})
		return true
	})
}

// propagate drains the fix queue and the dirty generic rows to
// fixpoint. On contradiction it clears the queues and reports false;
// fixes already applied stay on the trail for the caller's undo.
func (s *searcher) propagate() bool {
	for {
		if n := len(s.pend); n > 0 {
			f := s.pend[n-1]
			s.pend = s.pend[:n-1]
			if !s.apply(f.v, f.val) {
				s.resetQueues()
				return false
			}
			continue
		}
		if n := len(s.dirty); n > 0 {
			g := s.dirty[n-1]
			s.dirty = s.dirty[:n-1]
			s.isDirty[g] = false
			if !s.checkGeneric(g) {
				s.resetQueues()
				return false
			}
			continue
		}
		return true
	}
}

func (s *searcher) resetQueues() {
	s.pend = s.pend[:0]
	for _, g := range s.dirty {
		s.isDirty[g] = false
	}
	s.dirty = s.dirty[:0]
}

// checkGeneric evaluates a generic row's feasibility window against the
// current partial assignment and enqueues any forced fixings.
func (s *searcher) checkGeneric(g int32) bool {
	con := &s.c.m.cons[s.c.gens[g]]
	fixedSum, minFree, maxFree := 0.0, 0.0, 0.0
	freeCount := 0
	for _, t := range con.Terms {
		switch s.val[t.Var] {
		case one:
			fixedSum += t.Coef
		case unset:
			freeCount++
			if t.Coef > 0 {
				maxFree += t.Coef
			} else {
				minFree += t.Coef
			}
		}
	}
	if con.Sense == LE || con.Sense == EQ {
		if fixedSum+minFree > con.RHS+Eps {
			return false
		}
	}
	if con.Sense == GE || con.Sense == EQ {
		if fixedSum+maxFree < con.RHS-Eps {
			return false
		}
	}
	if freeCount == 0 {
		return true
	}
	for _, t := range con.Terms {
		if s.val[t.Var] != unset {
			continue
		}
		v := int32(t.Var)
		if con.Sense == LE || con.Sense == EQ {
			base := minFree
			if t.Coef < 0 {
				base -= t.Coef // exclude t from the min
			}
			if fixedSum+base+t.Coef > con.RHS+Eps {
				s.pend = append(s.pend, pfix{v, zero})
				continue
			}
		}
		if con.Sense == GE || con.Sense == EQ {
			base := maxFree
			if t.Coef > 0 {
				base -= t.Coef // exclude t from the max
			}
			if fixedSum+base+t.Coef < con.RHS-Eps {
				s.pend = append(s.pend, pfix{v, zero})
				continue
			}
			// Setting t.Var = 0: remaining max without t.
			if fixedSum+base < con.RHS-Eps {
				s.pend = append(s.pend, pfix{v, one})
				continue
			}
		}
	}
	return true
}

// undo rewinds the trail to mark, restoring counters and the free set.
func (s *searcher) undo(mark int) {
	c := s.c
	for i := len(s.trail) - 1; i >= mark; i-- {
		v := s.trail[i]
		if s.val[v] == one {
			s.fixedObj -= c.obj[v]
			for _, r := range c.cliquesOf[v] {
				s.cliqueOnes[r]--
				s.cliqueFree[r]++
			}
			for _, r := range c.degreesOf[v] {
				s.degOnes[r]--
				s.degFree[r]++
			}
		} else {
			for _, r := range c.cliquesOf[v] {
				s.cliqueFree[r]++
			}
			for _, r := range c.degreesOf[v] {
				s.degFree[r]++
			}
		}
		s.val[v] = unset
		s.free.set(v)
	}
	s.trail = s.trail[:mark]
}

// lowerBound computes an admissible bound on the best completion of the
// current partial assignment: the objective of the ones fixed so far
// (branching and propagation both contribute), the cheapest free member
// of every unsatisfied partition, and grouped negative coefficients.
func (s *searcher) lowerBound() float64 {
	c := s.c
	partSum := 0.0
	for _, r := range c.parts {
		if s.degOnes[r] > 0 {
			continue
		}
		min := math.Inf(1)
		forEachAnd(c.degrees[r], s.free, func(v int32) bool {
			if c.obj[v] < min {
				min = c.obj[v]
			}
			return true
		})
		if !math.IsInf(min, 1) {
			partSum += min
		}
	}
	if c.halfDeg {
		// Assignment bound over every unsatisfied degree row, at half
		// weight; admissible alongside the partition cover, so take the
		// larger of the two.
		halfSum := 0.0
		for r := range c.degrees {
			if s.degOnes[r] > 0 {
				continue
			}
			min := math.Inf(1)
			forEachAnd(c.degrees[r], s.free, func(v int32) bool {
				if c.obj[v] < min {
					min = c.obj[v]
				}
				return true
			})
			if !math.IsInf(min, 1) {
				halfSum += min
			}
		}
		if h := halfSum / 2; h > partSum {
			partSum = h
		}
	}
	lb := s.fixedObj + partSum
	for _, g := range c.negGroups {
		min := 0.0
		for _, v := range g {
			if s.val[v] == unset && c.obj[v] < min {
				min = c.obj[v]
			}
		}
		lb += min
	}
	for _, v := range c.negSolo {
		if s.val[v] == unset {
			lb += c.obj[v]
		}
	}
	return lb
}

// pickBranch chooses the branching variable: the cheapest free member
// of the unsatisfied exactly-one row with the fewest free members, or,
// failing that, the free variable with the largest |objective|. All
// ties break toward the lowest index, keeping the search deterministic.
func (s *searcher) pickBranch() (int32, bool) {
	c := s.c
	bestRow := int32(-1)
	bestFree := int32(math.MaxInt32)
	for r := range c.degrees {
		if s.degOnes[r] == 0 && s.degFree[r] > 0 && s.degFree[r] < bestFree {
			bestRow, bestFree = int32(r), s.degFree[r]
		}
	}
	if bestRow >= 0 {
		bv, bc := int32(-1), math.Inf(1)
		forEachAnd(c.degrees[bestRow], s.free, func(v int32) bool {
			if c.obj[v] < bc {
				bc, bv = c.obj[v], v
			}
			return true
		})
		if bv >= 0 {
			return bv, true
		}
	}
	bv, bc := int32(-1), -1.0
	forEachBit(s.free, func(v int32) bool {
		if a := math.Abs(c.obj[v]); a > bc {
			bc, bv = a, v
		}
		return true
	})
	if bv < 0 {
		return 0, false
	}
	return bv, true
}

func (s *searcher) snapshot() []bool {
	vals := make([]bool, s.c.nv)
	for i, f := range s.val {
		vals[i] = f == one
	}
	return vals
}

// recordLeaf validates the complete assignment against the full model
// (Check is the authority; the incremental counters are bookkeeping)
// and folds it into the searcher's and the solve's incumbents.
func (s *searcher) recordLeaf() {
	vals := s.snapshot()
	obj, ok := s.c.m.Check(vals)
	if !ok {
		return
	}
	if !s.found || obj < s.bestObj {
		s.found = true
		s.bestObj = obj
		s.bestVals = vals
	}
	s.sh.offer(obj)
}

// search explores the subtree below the current partial assignment,
// consuming any pending decision from the queue first.
func (s *searcher) search() {
	s.sh.nodes++
	if s.sh.nodes > s.sh.maxNodes {
		s.budgetHit = true
		s.resetQueues()
		return
	}
	mark := len(s.trail)
	if !s.propagate() {
		s.undo(mark)
		return
	}
	if lb := s.lowerBound(); lb >= s.sh.best-Eps {
		s.pruned++
		s.undo(mark)
		return
	}
	v, ok := s.pickBranch()
	if !ok {
		s.recordLeaf()
		s.undo(mark)
		return
	}
	for _, val := range valueOrder {
		s.decisions++
		s.pend = append(s.pend, pfix{v, val})
		s.search()
		if s.budgetHit {
			break
		}
	}
	s.undo(mark)
}

// dive finds the canonical witness: the first complete feasible
// assignment with objective <= bound in the fixed depth-first order,
// pruning only subtrees whose lower bound provably exceeds bound. With
// bound = V + Eps for the proved optimum V, the result is a pure
// function of (model, options).
func (s *searcher) dive(bound float64) bool {
	s.sh.nodes++
	if s.sh.nodes > s.sh.maxNodes {
		s.budgetHit = true
		s.resetQueues()
		return false
	}
	mark := len(s.trail)
	if !s.propagate() {
		s.undo(mark)
		return false
	}
	if lb := s.lowerBound(); lb > bound {
		s.pruned++
		s.undo(mark)
		return false
	}
	v, ok := s.pickBranch()
	if !ok {
		vals := s.snapshot()
		if obj, okc := s.c.m.Check(vals); okc && obj <= bound {
			s.found = true
			s.bestObj = obj
			s.bestVals = vals
			return true
		}
		s.undo(mark)
		return false
	}
	for _, val := range valueOrder {
		s.decisions++
		s.pend = append(s.pend, pfix{v, val})
		if s.dive(bound) {
			return true
		}
		if s.budgetHit {
			break
		}
	}
	s.undo(mark)
	return false
}
