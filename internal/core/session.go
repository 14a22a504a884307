package core

import (
	"errors"

	"repro/internal/matrix"
	"repro/internal/phase"
	"repro/internal/qbd"
)

// Session runs repeated solves while reusing everything structural
// between them: the matrix workspace, each class's built chain (state
// space, block dimensions, sparsity patterns) and — when WarmStart is
// on — each class's last converged R matrix as the next solve's initial
// iterate. A structural diff on every class decides what carries over:
// a rates-only change refills the existing generator in place, any
// structural change (partitioning or a phase order) rebuilds just that
// class.
//
// Reuse never changes answers: structure reuse is exact (a refilled
// generator is bit-for-bit the rebuilt one), and a warm R is only an
// initial guess whose solution is re-certified post-hoc, falling back
// to the cold ladder when rejected. With WarmStart off, Resolve is
// bit-for-bit the one-shot Solve.
//
// A Session is not safe for concurrent use; run one per goroutine
// (the sweep harness threads one per worker; gangserved one per shard).
// The single exception is Counters, which is race-safe so a metrics
// scraper can read a live session mid-solve. Internally a solve may
// fan its independent per-class QBDs onto a bounded worker group
// (SolveOptions.Parallel); that concurrency is owned entirely by the
// session — each class then works out of its own workspace arena and
// the caller-facing contract is unchanged. Results returned by
// earlier Resolve calls stay valid after later ones: their measures
// read the immutable qbd.Solution and layout, not the refilled
// generator entries.
type Session struct {
	opts     SolveOptions
	ws       *matrix.Workspace
	classes  []sessionClass
	counters AtomicCounters
}

// sessionClass is the per-class state a Session carries between solves.
type sessionClass struct {
	sig   classSig
	chain *ClassChain
	lastR *matrix.Dense
	// ws is the class's private workspace arena, created on first
	// parallel dispatch. Serial solves keep the session-wide arena (the
	// historical layout); parallel solves must not share one — the arena
	// is deliberately unsynchronized — so each class owns scratch sized
	// to its own chain. Buffers are zeroed at checkout, so which arena
	// serves a solve never changes a single bit of the answer.
	ws *matrix.Workspace
}

// classSig is the structural signature of one class's chain: two models
// with equal signatures enumerate identical state spaces, so the chain
// built for one can be refilled with the other's rates.
type classSig struct {
	servers, mA, mB, mG, nF, batchW int
}

func sigFor(m *Model, p int, intervisit *phase.Dist) classSig {
	c := &m.Classes[p]
	return classSig{
		servers: m.Servers(p),
		mA:      c.Arrival.Order(),
		mB:      c.Service.Order(),
		mG:      c.Quantum.Order(),
		nF:      intervisit.Order(),
		batchW:  c.MaxBatch(),
	}
}

// NewSession validates opts, applies defaults and returns a Session
// ready for Resolve. A zero SolveOptions gives the same defaults as
// Solve; set opts.WarmStart to carry R iterates between solves.
func NewSession(opts SolveOptions) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.RMatrix.Workspace == nil {
		opts.RMatrix.Workspace = matrix.NewWorkspace()
	}
	return &Session{opts: opts, ws: opts.RMatrix.Workspace}, nil
}

// Resolve solves the model with the session's options, reusing whatever
// the structural diff against the previous model allows.
func (s *Session) Resolve(m *Model) (*Result, error) {
	return s.resolve(m, s.opts, false)
}

// ResolveWith is Resolve under per-call option overrides (defaults are
// applied; the session's workspace is used unless opts names one).
func (s *Session) ResolveWith(m *Model, opts SolveOptions) (*Result, error) {
	opts, err := s.override(opts)
	if err != nil {
		return nil, err
	}
	return s.resolve(m, opts, false)
}

// ResolveHeavyTraffic is SolveHeavyTraffic through the session: the
// Theorem 4.1 initialization only, no fixed-point refinement.
func (s *Session) ResolveHeavyTraffic(m *Model, opts SolveOptions) (*Result, error) {
	opts, err := s.override(opts)
	if err != nil {
		return nil, err
	}
	return s.resolve(m, opts, true)
}

func (s *Session) override(opts SolveOptions) (SolveOptions, error) {
	if err := opts.Validate(); err != nil {
		return opts, err
	}
	opts = opts.withDefaults()
	if opts.RMatrix.Workspace == nil {
		opts.RMatrix.Workspace = s.ws
	}
	return opts, nil
}

// Counters returns the session's cumulative pipeline statistics across
// all Resolve calls so far. Unlike every other Session method it is safe
// for concurrent use — the accumulator is atomic, so a /metrics scrape
// can read a session owned by another goroutine mid-solve.
func (s *Session) Counters() Counters { return s.counters.Snapshot() }

// resolve is the top of the staged pipeline: validate the model, sync
// per-class session state, then run the fixed point.
// heavy caps the iteration at the Theorem 4.1 initialization.
func (s *Session) resolve(m *Model, opts SolveOptions, heavy bool) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if heavy {
		opts.MaxIterations = 1
	}
	if len(s.classes) != m.NumClasses() {
		s.classes = make([]sessionClass, m.NumClasses())
	}
	var cnt Counters
	res, err := s.runFixedPoint(m, opts, &cnt)
	s.counters.Add(cnt)
	if res != nil {
		res.Counters = cnt
	}
	return res, err
}

// stageBuildClass is pipeline stage 2 for one class: reuse the session
// chain via an in-place refill when the structural signature matches,
// rebuild otherwise. A structural change invalidates the class's warm
// iterate (its dimension or meaning changed with the state space).
func (s *Session) stageBuildClass(m *Model, p int, f *phase.Dist, cnt *Counters) (*ClassChain, error) {
	st := &s.classes[p]
	sig := sigFor(m, p, f)
	if st.chain != nil && st.sig == sig {
		ok, err := st.chain.Refill(m, p, f)
		if err != nil {
			return nil, err
		}
		if ok {
			cnt.Refills++
			return st.chain, nil
		}
	}
	ch, err := BuildClassChain(m, p, f)
	if err != nil {
		return nil, err
	}
	cnt.Builds++
	if st.sig != sig {
		st.lastR = nil
	}
	st.sig, st.chain = sig, ch
	return ch, nil
}

// stageSolveQBD is pipeline stage 3 for one class: the matrix-geometric
// solve, warm-started from the class's last converged R when the
// session allows it. The solution's certificate is unconditional —
// qbd.Solve certifies warm and cold paths alike — and its R becomes the
// class's next warm iterate.
func (s *Session) stageSolveQBD(p int, ch *ClassChain, opts SolveOptions, cnt *Counters) (*qbd.Solution, error) {
	st := &s.classes[p]
	ropts := opts.RMatrix
	warm := false
	if opts.WarmStart && st.lastR != nil && st.lastR.Rows() == ch.Proc.RepeatDim() {
		ropts.InitialR = st.lastR
		warm = true
	}
	cnt.Solves++
	if warm {
		cnt.WarmSolves++
	} else {
		cnt.ColdSolves++
	}
	sol, err := qbd.Solve(ch.Proc, ropts)
	if err != nil {
		// Poison protection: a failed solve says the retained warm iterate
		// may be implicated — a non-converged or contaminated R would
		// otherwise seed every later solve routed to this class (the shard
		// keyed by classSig in gangserved). Drop it so the next solve
		// starts from the cold ladder. ErrUnstable is exempt: instability
		// is a verdict about the model's drift, not about the iterate.
		if !errors.Is(err, qbd.ErrUnstable) {
			st.lastR = nil
		}
		return nil, err
	}
	if sol.Cert != nil {
		cnt.RIterations += sol.Cert.Iterations
		if warm && qbd.WarmAccepted(sol.Cert.Path) {
			cnt.WarmAccepted++
		}
	}
	st.lastR = sol.R
	return sol, nil
}

// stageExtractQuantum is pipeline stage 4: the effective-quantum
// extraction from the solved chain (Theorem 4.3's per-class output).
func stageExtractQuantum(ch *ClassChain, sol *qbd.Solution, opts SolveOptions) (*EffectiveQuantum, error) {
	return ExtractEffectiveQuantum(ch, sol, opts.TailEps, opts.TruncationCap, opts.RMatrix.Workspace)
}

// solveClass chains stages 2–4 for one class and assembles its
// ClassResult (stage 5's per-class part).
func (s *Session) solveClass(m *Model, p int, f *phase.Dist, opts SolveOptions, cnt *Counters) (*ClassResult, error) {
	ch, err := s.stageBuildClass(m, p, f, cnt)
	if err != nil {
		return nil, err
	}
	cr := &ClassResult{Rho: m.ClassUtilization(p), Intervisit: f, chain: ch}
	sol, err := s.stageSolveQBD(p, ch, opts, cnt)
	if errors.Is(err, qbd.ErrUnstable) {
		return cr, nil // Stable stays false
	}
	if err != nil {
		return nil, err
	}
	cr.Stable = true
	cr.Solution = sol
	cr.Cert = sol.Cert
	// The certificate's bound is Solution.SpectralRadiusR's arithmetic
	// on the same R (the spectral bracket's upper end), so reusing it
	// saves a second bracket, a few dense squarings, per class.
	cr.SpectralRadiusR = sol.Cert.SpectralRadius
	cr.N, err = ch.MeanJobs(sol)
	if err != nil {
		return nil, err
	}
	cr.T = cr.N / m.ArrivalRate(p)
	cr.Effective, err = stageExtractQuantum(ch, sol, opts)
	if err != nil {
		return nil, err
	}
	return cr, nil
}
