package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
)

// TestSolveAttachesClassCertificates: every stable class of a healthy
// solve carries its QBD solve's verified certificate.
func TestSolveAttachesClassCertificates(t *testing.T) {
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for p, cr := range res.Classes {
		if !cr.Stable {
			continue
		}
		if cr.Err != nil {
			t.Fatalf("class %d carries error: %v", p, cr.Err)
		}
		if cr.Cert == nil {
			t.Fatalf("class %d missing certificate", p)
		}
		if verr := cr.Cert.Verify(); verr != nil {
			t.Fatalf("class %d certificate does not verify: %v", p, verr)
		}
	}
}

// TestSpectralRadiusFromCertificate pins the reuse of the certificate's
// spectral bound: for every stable class, ClassResult.SpectralRadiusR,
// the certificate's bound and a fresh Solution.SpectralRadiusR() are the
// same bits — serial, per-class parallel, and warm-started.
func TestSpectralRadiusFromCertificate(t *testing.T) {
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	for _, opts := range []SolveOptions{
		{Parallel: 1},
		{Parallel: 2},
		{Parallel: 2, WarmStart: true},
	} {
		res, err := Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		stable := 0
		for p, cr := range res.Classes {
			if !cr.Stable {
				continue
			}
			stable++
			ctx := fmt.Sprintf("parallel=%d warm=%v class %d", opts.Parallel, opts.WarmStart, p)
			sameBits(t, ctx+" cert", cr.SpectralRadiusR, cr.Cert.SpectralRadius)
			sameBits(t, ctx+" solution", cr.SpectralRadiusR, cr.Solution.SpectralRadiusR())
		}
		if stable < 2 {
			t.Fatalf("parallel=%d: only %d stable classes; the pin needs a multi-class solve", opts.Parallel, stable)
		}
	}
}

// TestSolveDegradesPerClass: an injected failure in one class must not
// abort the solve — the failed class carries a typed error, the others
// stay healthy.
func TestSolveDegradesPerClass(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	injected := errors.New("injected class failure")
	faultinject.Arm("core.class", func(p any) error {
		if p.(int) == 1 {
			return injected
		}
		return nil
	})
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatalf("whole solve died on a one-class failure: %v", err)
	}
	cr := res.Classes[1]
	if cr.Err == nil {
		t.Fatal("failed class carries no error")
	}
	if cr.Stable {
		t.Fatal("failed class marked stable")
	}
	if !errors.Is(cr.Err, certify.ErrNumericContaminated) || !errors.Is(cr.Err, injected) {
		t.Fatalf("class error %v lacks kind or cause", cr.Err)
	}
	var f *certify.Failure
	if !errors.As(cr.Err, &f) || f.Stage != "core.class[1]" {
		t.Fatalf("failure stage: %+v", f)
	}
	for _, p := range []int{0, 2, 3} {
		if res.Classes[p].Err != nil || !res.Classes[p].Stable {
			t.Fatalf("healthy class %d poisoned: %+v", p, res.Classes[p])
		}
	}
}

// TestSolveAllClassesFailedTyped: when every class fails with a typed
// error the solve reports the joined typed failure, not ErrAllUnstable.
func TestSolveAllClassesFailedTyped(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("core.class", func(any) error {
		return &certify.Failure{Kind: certify.ErrNotConverged, Stage: "test"}
	})
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	res, err := Solve(m, SolveOptions{})
	if err == nil {
		t.Fatal("all-failed solve returned nil error")
	}
	if errors.Is(err, ErrAllUnstable) {
		t.Fatal("typed failures misreported as instability")
	}
	if !errors.Is(err, certify.ErrNotConverged) {
		t.Fatalf("joined failure %v lost its kind", err)
	}
	if res == nil || len(res.Classes) != 4 {
		t.Fatal("partial result not returned alongside the error")
	}
}

// TestSolveResultInjection: the core.result fault point propagates its
// error with the (otherwise complete) result attached.
func TestSolveResultInjection(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.ArmOnce("core.result", func(any) error {
		return &certify.Failure{Kind: certify.ErrNotConverged, Stage: "test.inject"}
	})
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	if _, err := Solve(m, SolveOptions{}); !errors.Is(err, certify.ErrNotConverged) {
		t.Fatalf("injected result failure → %v", err)
	}
	// Hook disarmed: the next solve is healthy again.
	if _, err := Solve(m, SolveOptions{}); err != nil {
		t.Fatalf("solve after one-shot injection: %v", err)
	}
}
