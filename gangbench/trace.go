package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/phase"
	"repro/internal/qbd"
)

// rungs are the QBD ladder's answering rungs, as named in certificate
// paths; the tightened retries of both classical rungs count as one.
var rungs = []string{"warm", "newton", "logreduction", "substitution", "tightened", "shifted"}

// layerTrace accumulates per-layer observations of the traced run: the
// counts every solve already reports (Result.Iterations, Counters,
// Cert.Path) and the timings of the replayed stage calls.
type layerTrace struct {
	solves   int // core.Solve results observed
	rounds   int
	counters core.Counters
	answered map[string]int // answering rung → QBD solves

	classes                                   int // replayed class rounds
	order, ivOrder                            float64
	intervisit, build, solve, rmatrix, spectr time.Duration
	certifyR, meanJobs, effq                  time.Duration
	solveAllocs                               float64
	mul, lu                                   time.Duration
	mulAllocs, rFlops, rBytes                 float64
}

func newLayerTrace() *layerTrace { return &layerTrace{answered: map[string]int{}} }

// observe records the counts one solve reports: its fixed-point
// rounds and its pipeline counters.
func (lt *layerTrace) observe(rounds int, c core.Counters) {
	lt.solves++
	lt.rounds += rounds
	lt.counters.Add(c)
}

// observePath records the ladder path of one class's final certificate;
// its last entry names the answering rung.
func (lt *layerTrace) observePath(path []string) {
	if len(path) == 0 {
		return
	}
	name, _, _ := strings.Cut(path[len(path)-1], ": ")
	name, _, _ = strings.Cut(name, "-") // tightened-logreduction → tightened
	lt.answered[name]++
}

// observeResult records an in-process core.Solve result's counts and
// certificate paths.
func (lt *layerTrace) observeResult(res *core.Result) {
	lt.observe(res.Iterations, res.Counters)
	for _, cr := range res.Classes {
		if cr.Cert != nil {
			lt.observePath(cr.Cert.Path)
		}
	}
}

// mallocs returns the process's cumulative heap allocation count. The
// replay runs on one goroutine while nothing else works, so a
// difference of two readings is the allocations of the calls between.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// replay re-runs one fixed-point round of a converged solve, class by
// class, through the public stage functions, timing each call: the
// intervisit rebuild, the chain build, the certified QBD solve, the raw
// R ladder, the standalone certificate, the spectral bound, the mean
// population and the effective-quantum extraction. The matrix timings
// use the class's own R and repeating blocks. It returns the first
// error a stage reports.
func (lt *layerTrace) replay(m *core.Model, res *core.Result, opts core.SolveOptions) error {
	quanta := make([]*phase.Dist, len(res.Classes))
	for q, cr := range res.Classes {
		quanta[q] = m.Classes[q].Quantum
		if cr.Effective != nil {
			d, err := cr.Effective.ReducedDist(opts.MaxFitOrder)
			if err != nil {
				return err
			}
			quanta[q] = d
		}
	}
	ws := matrix.NewWorkspace()
	ropts := qbd.RMatrixOptions{Workspace: ws}
	for p, cr := range res.Classes {
		if !cr.Stable || cr.Solution == nil {
			continue
		}
		var iv *phase.Dist
		lt.intervisit += timed(func() { iv = core.IntervisitFrom(m, p, quanta) })
		lt.ivOrder += float64(iv.Order())

		var ch *core.ClassChain
		var err error
		lt.build += timed(func() { ch, err = core.BuildClassChain(m, p, cr.Intervisit) })
		if err != nil {
			return err
		}
		var sol *qbd.Solution
		a0 := mallocs()
		lt.solve += timed(func() { sol, err = qbd.Solve(ch.Proc, ropts) })
		lt.solveAllocs += float64(mallocs() - a0)
		if err != nil {
			return err
		}
		pr := ch.Proc
		lt.rmatrix += timed(func() { _, err = qbd.RMatrixOp(pr.A0, pr.A1, pr.A2, ropts) })
		if err != nil {
			return err
		}
		var cert *certify.Certificate
		lt.certifyR += timed(func() {
			cert = qbd.CertifyR(sol.R, pr.A0.Dense(), pr.A1.Dense(), pr.A2.Dense(), certify.Tolerances{})
		})
		if err := cert.VerifyR(); err != nil {
			return err
		}
		lt.spectr += timed(func() { _ = sol.SpectralRadiusR() })
		lt.meanJobs += timed(func() { _, err = ch.MeanJobs(sol) })
		if err != nil {
			return err
		}
		lt.effq += timed(func() {
			_, err = core.ExtractEffectiveQuantum(ch, sol, opts.TailEps, opts.TruncationCap, ws)
		})
		if err != nil {
			return err
		}

		n := sol.R.Rows()
		dst := matrix.New(n, n)
		a2 := pr.A2.Dense()
		a0 = mallocs()
		lt.mul += timed(func() { matrix.MulTo(dst, sol.R, a2) })
		lt.mulAllocs += float64(mallocs() - a0)
		lu := matrix.NewLU(n)
		lt.lu += timed(func() { err = lu.Reset(pr.A1.Dense()) })
		if err != nil {
			return err
		}
		// Logarithmic-reduction cost model per certified iteration: eight
		// dense products (2n³ flops, 3n² words each), one LU (⅔n³) and one
		// inverse (4⁄3n³, 2n² words each).
		it := float64(sol.Cert.Iterations)
		nf := float64(n)
		lt.rFlops += it * 18 * nf * nf * nf
		lt.rBytes += it * (8*3 + 2*2) * nf * nf * 8
		lt.order += nf
		lt.classes++
	}
	return nil
}

// metrics renders the core, phase, qbd, certify and matrix layers.
func (lt *layerTrace) metrics(out metrics) {
	per := func(d time.Duration) float64 {
		if lt.classes == 0 {
			return 0
		}
		return float64(d) / 1e6 / float64(lt.classes)
	}
	perClass := func(x float64) float64 {
		if lt.classes == 0 {
			return 0
		}
		return x / float64(lt.classes)
	}
	perSolve := func(x int) float64 {
		if lt.solves == 0 {
			return 0
		}
		return float64(x) / float64(lt.solves)
	}
	c := lt.counters
	out.set("core.rounds_per_solve", perSolve(lt.rounds), "count")
	out.set("core.qbd_solves_per_solve", perSolve(c.Solves), "count")
	out.set("core.refill_share", ratio(c.Refills, c.Refills+c.Builds), "share")
	out.set("core.build_ms", per(lt.build), "ms")
	out.set("core.effq_ms", per(lt.effq), "ms")
	out.set("core.meanjobs_ms", per(lt.meanJobs), "ms")
	out.set("phase.intervisit_us", per(lt.intervisit)*1e3, "us")
	out.set("phase.intervisit_order", perClass(lt.ivOrder), "count")
	out.set("qbd.order", perClass(lt.order), "count")
	out.set("qbd.r_iters_per_solve", ratio(c.RIterations, c.Solves), "count")
	answered := 0
	for _, k := range lt.answered {
		answered += k
	}
	for _, r := range rungs {
		out.set("qbd.rung_share."+r, ratio(lt.answered[r], answered), "share")
	}
	out.set("qbd.solve_ms", per(lt.solve), "ms")
	out.set("qbd.rmatrix_ms", per(lt.rmatrix), "ms")
	out.set("qbd.boundary_ms", max(0, per(lt.solve)-per(lt.rmatrix)-per(lt.certifyR)), "ms")
	out.set("qbd.spectral_ms", per(lt.spectr), "ms")
	out.set("qbd.solve_allocs", perClass(lt.solveAllocs), "count")
	out.set("certify.certify_ms", per(lt.certifyR), "ms")
	certOverR := 0.0
	if lt.rmatrix > 0 {
		certOverR = float64(lt.certifyR) / float64(lt.rmatrix)
	}
	out.set("certify.cert_over_r", certOverR, "ratio")
	out.set("matrix.mul_ms", per(lt.mul), "ms")
	out.set("matrix.mul_allocs", perClass(lt.mulAllocs), "count")
	out.set("matrix.lu_ms", per(lt.lu), "ms")
	out.set("matrix.r_flops_computed", perClass(lt.rFlops), "flop")
	out.set("matrix.bytes_computed", perClass(lt.rBytes), "B")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
