package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/xcheck"
)

// phaseResult is what one phase contributes to a run.
type phaseResult struct {
	attempted, failed int
	e2e               metrics
	layers            metrics
	details           map[string]any
	problems          []string // failed output checks
}

func newPhaseResult() *phaseResult {
	return &phaseResult{e2e: metrics{}, layers: metrics{}, details: map[string]any{}}
}

func (pr *phaseResult) problem(format string, args ...any) {
	pr.problems = append(pr.problems, fmt.Sprintf(format, args...))
}

// totalAlloc returns the bytes allocated so far by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// job is one phase split into units that the scheduler interleaves
// with the other phases' units, so every figure samples the whole run
// rather than one stretch of it; finish runs once every unit is done,
// outside the timed units, and does the output checks and any replay.
type job struct {
	units  []func()
	finish func() *phaseResult
}

// bitwiseSample is how many grid trials are re-solved directly with
// core.Solve and compared bit for bit.
const bitwiseSample = 3

// gridJob sweeps the grid cold through sweep.RunTrials on 2 workers, one
// pass of gridTrialsPerPass trials per unit, each with a fresh in-memory
// cache; grid.trials_per_s is the median pass throughput. A traced run
// also reports the sweep layer; lt, when non-nil, receives every
// trial's counts and a replayed round of each re-solved sample trial.
func gridJob(in *Inputs, traced bool, lt *layerTrace) job {
	trials := in.Grid
	results := make([]sweep.TrialResult, len(trials))
	var rates []float64
	var alloc uint64
	retries, hits := 0, 0
	var runErr error
	var units []func()
	for lo := 0; lo < len(trials); lo += gridTrialsPerPass {
		lo, hi := lo, min(lo+gridTrialsPerPass, len(trials))
		units = append(units, func() {
			a0 := totalAlloc()
			t0 := time.Now()
			run, err := sweep.RunTrials(context.Background(), trials[lo:hi], sweep.Options{Workers: 2, Cache: sweep.NewMemCache()})
			rates = append(rates, float64(hi-lo)/time.Since(t0).Seconds())
			alloc += totalAlloc() - a0
			if err != nil {
				runErr = err
				return
			}
			copy(results[lo:hi], run.Results)
			retries += run.Manifest.Retries
			hits += run.Manifest.CacheHits
		})
	}
	return job{units: units, finish: func() *phaseResult {
		pr := newPhaseResult()
		if runErr != nil {
			pr.problem("grid: RunTrials: %v", runErr)
			return pr
		}
		var ms []float64
		for i, r := range results {
			pr.attempted++
			ms = append(ms, float64(r.Elapsed)/1e6)
			if r.Status != sweep.StatusOK || r.Degraded {
				pr.failed++
				pr.problem("grid: trial %d status %s: %s", i, r.Status, r.Err)
			}
		}
		n := float64(len(trials))
		pr.e2e.set("grid.trials_per_s", median(rates), "1/s")
		pr.e2e.set("grid.alloc_mb", float64(alloc)/n/1e6, "MB")
		pr.e2e.set("grid.fail_share", failShare(pr.failed, pr.attempted), "share")

		// Output check: a seeded sample re-solved directly must match bit for bit.
		r := newStream(in.Seed, 4)
		for k := 0; k < bitwiseSample && len(trials) > 0; k++ {
			i := r.intn(len(trials))
			res, opts, err := solveDirect(trials[i])
			if err != nil {
				pr.problem("grid: direct solve of trial %d: %v", i, err)
				continue
			}
			if d := diffValues(results[i].Values, res); d != "" {
				pr.problem("grid: trial %d differs from a direct core.Solve: %s", i, d)
			}
			if lt != nil {
				for _, cr := range res.Classes {
					if cr.Cert != nil {
						lt.observePath(cr.Cert.Path)
					}
				}
				m, _ := trials[i].Scenario.Model()
				if err := lt.replay(m, res, withSolveDefaults(opts)); err != nil {
					pr.problem("grid: replay of trial %d: %v", i, err)
				}
			}
		}
		if lt != nil {
			for _, r := range results {
				lt.observe(int(r.Values["iterations"]), r.Counters)
			}
		}
		if traced {
			if t, ok := tail(ms); ok {
				pr.layers.set("sweep.trial_ms.tail", t.Value, "ms")
				pr.details["sweep.trial_ms.tail"] = t
			}
			pr.layers.set("sweep.trial_ms.p50", median(ms), "ms")
			pr.layers.set("sweep.retries", float64(retries), "count")
			pr.layers.set("sweep.cache_hit_share", float64(hits)/n, "share")
		}
		return pr
	}}
}

// withSolveDefaults fills the zero fields the replay reads with
// core.Solve's documented defaults (see core.SolveOptions).
func withSolveDefaults(o core.SolveOptions) core.SolveOptions {
	if o.MaxFitOrder == 0 {
		o.MaxFitOrder = 8
	}
	if o.TailEps == 0 {
		o.TailEps = 1e-10
	}
	if o.TruncationCap == 0 {
		o.TruncationCap = 400
	}
	return o
}

// solveDirect solves a trial the way the sweep's analytic executor does,
// but through core.Solve directly.
func solveDirect(t sweep.Trial) (*core.Result, core.SolveOptions, error) {
	opts := t.Solve.CoreOptions()
	opts.Parallel = 1
	m, err := t.Scenario.Model()
	if err != nil {
		return nil, opts, err
	}
	res, err := core.Solve(m, opts)
	return res, opts, err
}

// diffValues compares a trial's recorded values with a direct solve,
// bit for bit, and describes the first difference.
func diffValues(vals map[string]float64, res *core.Result) string {
	want := map[string]float64{
		"totalN": res.TotalN, "iterations": float64(res.Iterations), "meanCycle": res.MeanCycle,
	}
	for p, cr := range res.Classes {
		n, t := float64(sweep.Unstable), float64(sweep.Unstable)
		if cr.Stable {
			n, t = cr.N, cr.T
		}
		want[fmt.Sprintf("N%d", p)], want[fmt.Sprintf("T%d", p)] = n, t
	}
	if len(vals) != len(want) {
		return fmt.Sprintf("%d values, want %d", len(vals), len(want))
	}
	for k, w := range want {
		if got, ok := vals[k]; !ok || math.Float64bits(got) != math.Float64bits(w) {
			return fmt.Sprintf("%s = %v, direct %v", k, got, w)
		}
	}
	return ""
}

// scaleJob solves each large-block model, one per unit, with core.Solve
// and per-class dispatch on 2 workers. scale.wall_s is the wall time of
// one solve of each class count in the set, each the median over the
// set's models of that count. lt, when non-nil, receives each result's
// counts and a replayed round of it.
func scaleJob(in *Inputs, lt *layerTrace) job {
	opts := core.SolveOptions{Parallel: 2}
	n := len(in.Scale)
	results := make([]*core.Result, n)
	models := make([]*core.Model, n)
	errs := make([]error, n)
	walls := map[int][]float64{} // class count → solve walls, s
	var alloc uint64
	var units []func()
	for i := range in.Scale {
		units = append(units, func() {
			m, err := in.Scale[i].Model()
			if err != nil {
				errs[i] = err
				return
			}
			a0 := totalAlloc()
			t0 := time.Now()
			res, err := core.Solve(m, opts)
			walls[m.NumClasses()] = append(walls[m.NumClasses()], time.Since(t0).Seconds())
			alloc += totalAlloc() - a0
			models[i], results[i], errs[i] = m, res, err
		})
	}
	return job{units: units, finish: func() *phaseResult {
		pr := newPhaseResult()
		// Output check: solved, converged, and every stable class certified.
		for i, res := range results {
			pr.attempted++
			if errs[i] != nil {
				pr.failed++
				pr.problem("scale: model %d: %v", i, errs[i])
				continue
			}
			bad := !res.Converged
			if bad {
				pr.problem("scale: model %d did not converge in %d rounds", i, res.Iterations)
			}
			for p, cr := range res.Classes {
				if !cr.Stable {
					continue
				}
				if cr.Cert == nil {
					bad = true
					pr.problem("scale: model %d class %d has no certificate", i, p)
				} else if err := cr.Cert.Verify(); err != nil {
					bad = true
					pr.problem("scale: model %d class %d certificate: %v", i, p, err)
				}
			}
			if bad {
				pr.failed++
			}
		}
		wall := 0.0
		for _, w := range walls {
			wall += median(w)
		}
		pr.e2e.set("scale.wall_s", wall, "s")
		pr.e2e.set("scale.alloc_mb", float64(alloc)/float64(max(1, n))/1e6, "MB")
		pr.e2e.set("scale.fail_share", failShare(pr.failed, pr.attempted), "share")

		if lt != nil {
			for i, res := range results {
				if res == nil || errs[i] != nil {
					continue
				}
				lt.observeResult(res)
				if err := lt.replay(models[i], res, withSolveDefaults(opts)); err != nil {
					pr.problem("scale: replay of model %d: %v", i, err)
				}
			}
		}
		return pr
	}}
}

// oracleJob checks the corpus prefix with xcheck.Run on 2 workers, in
// chunks of oracleChunk cases, one chunk per unit, OraclePasses times
// over (a companion prefix is too short to time once; every pass gives
// the same verdicts). oracle.cases_per_min is the median over the units
// of their rates. At the committed corpus seed the case lines must equal
// the committed report's prefix byte for byte. A traced run times the
// sim and xcheck layers case by case; lt, when non-nil, receives a
// replayed round of each case's analytic solve.
func oracleJob(in *Inputs, committed *xcheck.Report, traced bool, lt *layerTrace) job {
	cases := in.Oracle
	params := xcheck.DefaultParams()
	lines := make([]xcheck.CaseLine, len(cases))
	full := make([]xcheck.CaseReport, len(cases))
	maxMargin := 0.0
	var rates []float64
	var units []func()
	for pass := 0; pass < in.OraclePasses; pass++ {
		for lo := 0; lo < len(cases); lo += oracleChunk {
			lo, hi := lo, min(lo+oracleChunk, len(cases))
			units = append(units, func() {
				t0 := time.Now()
				rep, reps := xcheck.Run(cases[lo:hi], params, 2, nil)
				rates = append(rates, float64(hi-lo)/time.Since(t0).Minutes())
				copy(lines[lo:hi], rep.Cases)
				copy(full[lo:hi], reps)
				maxMargin = math.Max(maxMargin, rep.MaxMargin)
			})
		}
	}
	return job{units: units, finish: func() *phaseResult {
		pr := newPhaseResult()
		for _, line := range lines {
			pr.attempted++
			if line.Status != xcheck.CaseAgree {
				pr.failed++
				pr.problem("oracle: case %d (%s) %s %s %v", line.Index, line.ID, line.Status, line.ErrKind, line.FailedChecks)
			}
		}
		pr.e2e.set("oracle.cases_per_min", median(rates), "1/min")
		pr.e2e.set("oracle.fail_share", failShare(pr.failed, pr.attempted), "share")
		if sameSeeds(cases, xcheck.Generate(defaultSeed, len(cases))) {
			if err := matchCommitted(lines, committed); err != nil {
				pr.problem("oracle: %v", err)
			}
		}
		if traced {
			traceOracle(cases, full, maxMargin, params, lt, pr)
		}
		return pr
	}}
}

func sameSeeds(a, b []xcheck.Case) bool {
	for i := range a {
		if a[i].Seed != b[i].Seed {
			return false
		}
	}
	return len(a) == len(b)
}

// matchCommitted compares the run's case lines with the committed
// report's first lines, byte for byte.
func matchCommitted(lines []xcheck.CaseLine, committed *xcheck.Report) error {
	if committed == nil {
		return errors.New("no committed report to compare with")
	}
	if committed.Seed != defaultSeed || len(committed.Cases) < len(lines) {
		return fmt.Errorf("committed report has seed %d and %d cases, need seed %d and %d",
			committed.Seed, len(committed.Cases), defaultSeed, len(lines))
	}
	got, err := json.Marshal(lines)
	if err != nil {
		return err
	}
	want, err := json.Marshal(committed.Cases[:len(lines)])
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return fmt.Errorf("case lines differ from the committed xcheck-report.json prefix")
	}
	return nil
}

// traceOracle times, case by case on 2 workers, the full check
// (xcheck.CheckCase), its analytic engine (core.Solve) and its
// simulator (sim.RunGang); the invariant gates are the remainder. Each
// analytic result is then replayed one round.
func traceOracle(cases []xcheck.Case, full []xcheck.CaseReport, maxMargin float64, params xcheck.Params, lt *layerTrace, pr *phaseResult) {
	type caseTrace struct {
		check, ana, sim time.Duration
		jobs, cycles    int
		m               *core.Model
		res             *core.Result
		err             error
	}
	out := make([]caseTrace, len(cases))
	opts := params.Solve.CoreOptions()
	opts.Parallel = 1
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c, ct := cases[i], &out[i]
				ct.check = timed(func() { _ = xcheck.CheckCase(c, params) })
				m, err := c.Scenario.Model()
				if err != nil {
					ct.err = err
					continue
				}
				ct.m = m
				ct.ana = timed(func() { ct.res, err = core.Solve(m, opts) })
				if err != nil && !errors.Is(err, core.ErrAllUnstable) {
					ct.err = err
					continue
				}
				var sr *sim.Result
				cfg := sim.Config{Model: m, Seed: c.Seed, Warmup: full[i].SimWarmup, Horizon: full[i].SimHorizon, Debug: true}
				ct.sim = timed(func() { sr, err = sim.RunGang(cfg) })
				if err != nil {
					ct.err = err
					continue
				}
				for _, cm := range sr.Classes {
					ct.jobs += cm.Completed
				}
				ct.cycles = sr.Cycles
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()

	var check, ana, simT time.Duration
	var jobs, cycles int
	for i, ct := range out {
		if ct.err != nil {
			pr.problem("oracle: trace of case %d: %v", i, ct.err)
			continue
		}
		check, ana, simT = check+ct.check, ana+ct.ana, simT+ct.sim
		jobs, cycles = jobs+ct.jobs, cycles+ct.cycles
		if ct.res != nil && lt != nil {
			lt.observeResult(ct.res)
			if err := lt.replay(ct.m, ct.res, withSolveDefaults(opts)); err != nil {
				pr.problem("oracle: replay of case %d: %v", i, err)
			}
		}
	}
	n := float64(max(1, len(cases)))
	pr.layers.set("sim.run_ms", float64(simT)/1e6/n, "ms")
	pr.layers.set("sim.jobs_per_s", float64(jobs)/simT.Seconds(), "1/s")
	pr.layers.set("sim.cycles_per_s", float64(cycles)/simT.Seconds(), "1/s")
	pr.layers.set("xcheck.analytic_ms", float64(ana)/1e6/n, "ms")
	pr.layers.set("xcheck.sim_ms", float64(simT)/1e6/n, "ms")
	pr.layers.set("xcheck.invariants_ms", math.Max(0, float64(check-ana-simT))/1e6/n, "ms")
	pr.layers.set("xcheck.max_margin", maxMargin, "ratio")
}
