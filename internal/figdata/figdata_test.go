package figdata

import (
	"math"
	"testing"

	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/suites"
)

var figCache = map[string]*perf.SuiteMeasurement{}

func measure(t *testing.T, name string) *perf.SuiteMeasurement {
	t.Helper()
	if sm, ok := figCache[name]; ok {
		return sm
	}
	// Full default budget: shorter runs starve low-activity counters of
	// the OS-noise trickle and the trend curves degrade into staircases
	// (see DESIGN.md decision log), which would fail the Fig. 5 check.
	cfg := suites.DefaultConfig()
	s, err := suites.ByName(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := suites.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	figCache[name] = sm
	return sm
}

func TestFig1Properties(t *testing.T) {
	sgx := measure(t, "sgxgauge")
	series, err := Fig1(sgx, 40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("series = %d, want the 5 paper workloads", len(series))
	}
	for _, s := range series {
		if len(s.Normalized) != 41 {
			t.Fatalf("%s grid length %d", s.Workload, len(s.Normalized))
		}
		for i, v := range s.Normalized {
			if v < -1e-9 || v > 100+1e-9 {
				t.Fatalf("%s normalized[%d] = %v out of [0,100]", s.Workload, i, v)
			}
			if i > 0 && v < s.Normalized[i-1]-1e-9 {
				t.Fatalf("%s normalized curve not monotone at %d", s.Workload, i)
			}
		}
		if s.RawMax < s.RawMin {
			t.Fatalf("%s raw bounds inverted", s.Workload)
		}
		// Event CDF ends at 100.
		if math.Abs(s.Normalized[len(s.Normalized)-1]-100) > 1e-9 {
			t.Fatalf("%s curve does not end at 100", s.Workload)
		}
	}
}

func TestFig1Errors(t *testing.T) {
	sgx := measure(t, "sgxgauge")
	if _, err := Fig1(sgx, 0, 0.1); err == nil {
		t.Fatal("grid 0 accepted")
	}
	nb := measure(t, "nbench")
	if _, err := Fig1(nb, 40, 0.1); err == nil {
		t.Fatal("suite without the Fig. 1 workloads accepted")
	}
}

func TestFig2Properties(t *testing.T) {
	res, err := Fig2(2023, metric.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The figure's point: WA's outliers inflate coverage, only spread
	// exposes the emptiness.
	if res.CoverageA <= res.CoverageB {
		t.Fatalf("WA coverage %v not above WB %v", res.CoverageA, res.CoverageB)
	}
	if res.SpreadA <= res.SpreadB {
		t.Fatalf("WA spread %v not worse than WB %v", res.SpreadA, res.SpreadB)
	}
}

func TestFig4Properties(t *testing.T) {
	for _, name := range []string{"nbench", "sgxgauge"} {
		sm := measure(t, name)
		points, err := Fig4(sm, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != len(sm.Workloads) {
			t.Fatalf("%s: %d points for %d workloads", name, len(points), len(sm.Workloads))
		}
		clusters := map[int]int{}
		for _, p := range points {
			if math.IsNaN(p.PC1) || math.IsNaN(p.PC2) {
				t.Fatalf("%s: NaN projection for %s", name, p.Workload)
			}
			if p.Cluster < 0 || p.Cluster > 1 {
				t.Fatalf("%s: cluster label %d", name, p.Cluster)
			}
			clusters[p.Cluster]++
		}
		if len(clusters) != 2 {
			t.Fatalf("%s: k-means produced %d clusters", name, len(clusters))
		}
	}
}

func TestFig5Properties(t *testing.T) {
	nb := measure(t, "nbench")
	curves, err := Fig5(nb, 4, 40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("curves = %d", len(curves))
	}
	// Nbench steady-state curves hug the diagonal: max deviation from the
	// diagonal must be small.
	for _, c := range curves {
		maxDev := 0.0
		n := len(c.Curve)
		for i, v := range c.Curve {
			diag := 100 * float64(i) / float64(n-1)
			if d := math.Abs(v - diag); d > maxDev {
				maxDev = d
			}
		}
		if maxDev > 15 {
			t.Fatalf("%s deviates %.1f from the diagonal — not steady", c.Workload, maxDev)
		}
	}
	// Clamp n beyond suite size.
	all, err := Fig5(nb, 1000, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(nb.Workloads) {
		t.Fatalf("unclamped n: %d", len(all))
	}
	if _, err := Fig5(nb, 0, 10, 0.1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestFig6Properties(t *testing.T) {
	lm := measure(t, "lmbench")
	nb := measure(t, "nbench")
	res, err := Fig6(lm, nb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.A) != len(lm.Workloads) || len(res.B) != len(nb.Workloads) {
		t.Fatalf("point counts %d/%d", len(res.A), len(res.B))
	}
	if res.SpanA1 <= 0 || res.SpanB1 < 0 {
		t.Fatalf("spans %v %v", res.SpanA1, res.SpanB1)
	}
	// LMbench's corner micros must span far more of the shared plane than
	// Nbench's tight kernels.
	if res.SpanA1 <= 2*res.SpanB1 {
		t.Fatalf("lmbench PC1 span %v not well above nbench %v", res.SpanA1, res.SpanB1)
	}
}
