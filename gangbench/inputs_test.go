package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/xcheck"
)

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateIsByteIdenticalPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := Generate(w, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w, 7, 10)
		if !bytes.Equal(encode(t, a), encode(t, b)) {
			t.Errorf("%s: two generations from seed 7 differ", w)
		}
		c, _ := Generate(w, 8, 10)
		if bytes.Equal(encode(t, a), encode(t, c)) {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", w)
		}
	}
}

// TestSeedMovesOnlyTheFocusedPhase checks that the companion phases of
// a run are the same whatever the seed.
func TestSeedMovesOnlyTheFocusedPhase(t *testing.T) {
	parts := func(in *Inputs) map[string][]byte {
		return map[string][]byte{
			wlGrid: encode(t, in.Grid), wlScale: encode(t, in.Scale),
			wlServe: encode(t, in.Serve), wlOracle: encode(t, in.Oracle),
		}
	}
	for _, w := range workloads {
		a, _ := Generate(w, 1, 10)
		b, _ := Generate(w, 2, 10)
		pa, pb := parts(a), parts(b)
		for phase := range pa {
			same := bytes.Equal(pa[phase], pb[phase])
			if phase == w && same {
				t.Errorf("%s: the focused phase ignores the seed", w)
			}
			if phase != w && !same {
				t.Errorf("%s: companion phase %s moved with the seed", w, phase)
			}
		}
	}
}

func TestOracleAtCorpusSeedIsTheCommittedCorpus(t *testing.T) {
	got := oracleCases(defaultSeed, 16)
	if !bytes.Equal(encode(t, got), encode(t, xcheck.Generate(defaultSeed, 16))) {
		t.Fatal("oracle inputs at seed 1996 are not the gangcheck corpus prefix")
	}
	other := oracleCases(3, 16)
	for i := range other {
		if other[i].ID != got[i].ID {
			t.Fatalf("case %d: scenario changed with the seed", i)
		}
	}
}

func TestServeMixIsExact(t *testing.T) {
	plan, err := servePlan(5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := serveTraffic
	rates := append([]float64{tr.low, tr.high, tr.low, tr.high}, tr.ladder...)
	if len(plan.Steps) != len(rates) {
		t.Fatalf("%d steps, want %d", len(plan.Steps), len(rates))
	}
	for i, st := range plan.Steps {
		if st.Rate != rates[i] {
			t.Errorf("step %d at %v/s, want %v/s", i, st.Rate, rates[i])
		}
		n := len(st.Requests)
		count := map[string]int{}
		last := 0.0
		for _, rq := range st.Requests {
			count[rq.Kind]++
			if rq.Due < last {
				t.Fatalf("step %d: due times go backwards", i)
			}
			last = rq.Due
		}
		repeats, structural := n*tr.repeatPct/100, n*tr.structuralPct/100
		if count[kindRepeat] != repeats || count[kindStructural] != structural ||
			count[kindNovel] != n-repeats-structural {
			t.Errorf("step %d mix %v of %d, want %d%% repeats, %d%% structural", i, count, n, tr.repeatPct, tr.structuralPct)
		}
	}
	if plan.Steps[0].Requests[0].Kind != kindNovel {
		t.Error("the plan opens with a repeat of nothing")
	}
}

func TestGenerateRejectsUnknownWorkload(t *testing.T) {
	if _, err := Generate("nope", 1, 10); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Generate(wlGrid, 1, 0); err == nil {
		t.Error("zero seconds accepted")
	}
}

// TestServeSeedDrawsOnlyArrivals checks that the seed moves the serve
// plan's due times and nothing else: every step keeps its rate, kinds
// and bodies, so every seed meets the same scenarios.
func TestServeSeedDrawsOnlyArrivals(t *testing.T) {
	a, err := servePlan(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := servePlan(2, 2, 1)
	moved := false
	for i, sa := range a.Steps {
		sb := b.Steps[i]
		if sa.Rate != sb.Rate || len(sa.Requests) != len(sb.Requests) {
			t.Fatalf("step %d: %v/s × %d vs %v/s × %d", i, sa.Rate, len(sa.Requests), sb.Rate, len(sb.Requests))
		}
		for j, ra := range sa.Requests {
			rb := sb.Requests[j]
			if ra.Kind != rb.Kind || !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("step %d request %d: the request changed with the seed", i, j)
			}
			moved = moved || ra.Due != rb.Due
		}
	}
	if !moved {
		t.Error("the seed did not move the arrivals")
	}
}
