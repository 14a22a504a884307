package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	for _, tc := range []struct {
		n          int
		ok         bool
		value, pct float64
	}{
		{n: 0},
		{n: 10},
		{n: 11, ok: true, value: 1, pct: 100.0 / 11},
		{n: 40, ok: true, value: 30, pct: 75},
		{n: 100, ok: true, value: 90, pct: 90},
		{n: 1000, ok: true, value: 990, pct: 99},
	} {
		xs := seq(tc.n)
		got, ok := tail(xs)
		if ok != tc.ok {
			t.Fatalf("n=%d: ok=%v, want %v", tc.n, ok, tc.ok)
		}
		if got.Samples != tc.n {
			t.Errorf("n=%d: samples %d", tc.n, got.Samples)
		}
		if !ok {
			continue
		}
		if got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-12 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", tc.n, got.Value, got.Percentile, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestTailCountsFailuresAsMisses(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = 5
	}
	for i := 0; i < minBeyond+1; i++ {
		xs[i] = math.Inf(1) // failed requests miss every latency limit
	}
	if got, _ := tail(xs); !math.IsInf(got.Value, 1) {
		t.Fatalf("tail %v, want +Inf once more than %d requests failed", got.Value, minBeyond)
	}
}

// TestRungPoolsEveryStepAtItsRate checks that a rung's tail comes from
// the latencies of all its steps pooled, so it sits as far out as the
// whole sample allows rather than at a step's p75, and that its median
// is the median of the steps' medians.
func TestRungPoolsEveryStepAtItsRate(t *testing.T) {
	run := &serveRun{}
	v := 0.0
	for _, rate := range []float64{20, 40, 20, 20} {
		st := stepResult{rate: rate, out: make([]outcome, 40)}
		for i := range st.out {
			v++
			st.out[i].latency = v
		}
		run.steps = append(run.steps, st)
	}
	run.steps[0].out[0].latency = math.Inf(1) // a failed request
	r := run.rung(20)
	if r.steps != 3 || r.tail.Samples != 120 {
		t.Fatalf("%d steps, %d samples; want 3 and 120", r.steps, r.tail.Samples)
	}
	// Pooled at 20/s: 2..40, 81..160 and +Inf. The 110th smallest is 151.
	if r.tail.Value != 151 || r.tail.Percentile != 100*110.0/120 {
		t.Errorf("tail %+v, want 151 at p%.2f", r.tail, 100*110.0/120)
	}
	// Step medians 21.5 (2..40 and +Inf), 100.5 and 140.5.
	if r.p50 != 100.5 {
		t.Errorf("p50 %v, want 100.5", r.p50)
	}
}

// TestMaxRPSIsTheHighestPassingRate checks that a lower rung failing,
// on its tail or its backlog, does not cap the capacity figure.
func TestMaxRPSIsTheHighestPassingRate(t *testing.T) {
	run := &serveRun{}
	for _, st := range []struct {
		rate, latency float64
		backlog       int
	}{{20, 5, 0}, {40, 300, 0}, {60, 5, 1}, {80, 5, 30}} {
		s := stepResult{rate: st.rate, out: make([]outcome, 40), backlog: st.backlog}
		for i := range s.out {
			s.out[i].latency = st.latency
		}
		run.steps = append(run.steps, s)
	}
	if got := run.maxRPS(); got != 60 {
		t.Errorf("max_rps %v, want 60", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestFailShareNeverZeroAndRisesWithFailures(t *testing.T) {
	const z2 = 1.6448536269514722 * 1.6448536269514722
	if got, want := failShare(0, 100), z2/(100+z2); math.Abs(got-want) > 1e-15 {
		t.Errorf("failShare(0, 100) = %v, want %v", got, want)
	}
	prev := 0.0
	for f := 0; f <= 5; f++ {
		s := failShare(f, 200)
		if s <= prev || s <= float64(f)/200 {
			t.Errorf("failShare(%d, 200) = %v: not above %v and the raw share", f, s, prev)
		}
		prev = s
	}
	if s0, s1 := failShare(0, 200), failShare(1, 200); s1 < 1.5*s0 {
		t.Errorf("one failure moves the share only from %v to %v", s0, s1)
	}
}

// TestOpenLoopTimesFromDueTime releases every request of a step at once
// against a server that takes 20 ms per request over two connections:
// each request's latency must include its wait behind the earlier ones,
// while its send-to-answer time stays one service time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	rig := &serveRig{url: ts.URL, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}}}
	defer rig.client.CloseIdleConnections()

	const n = 12
	step := ServeStep{Rate: 1}
	for i := 0; i < n; i++ {
		step.Requests = append(step.Requests, ServeRequest{Due: 0, Kind: kindNovel, Body: []byte(`{}`)})
	}
	res := rig.runStep(step)
	worst := 0.0
	for i, o := range res.out {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: status %d err %v", i, o.status, o.err)
		}
		if o.rtt > 10*float64(service/time.Millisecond) {
			t.Errorf("request %d: send-to-answer %v ms, want about one service time", i, o.rtt)
		}
		worst = math.Max(worst, o.latency)
	}
	if min := float64(n/maxConns) * float64(service/time.Millisecond); worst < min {
		t.Errorf("worst latency %v ms, want at least %v ms of queueing behind the earlier requests", worst, min)
	}
	if res.backlog < n-maxConns-1 {
		t.Errorf("backlog %d when the last request fell due, want about %d", res.backlog, n)
	}
	if res.genLagMs > 50 {
		t.Errorf("generator ran %v ms late", res.genLagMs)
	}
}
