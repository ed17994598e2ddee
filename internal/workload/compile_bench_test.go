package workload_test

import (
	"testing"

	"perspector/internal/suites"
	"perspector/internal/workload"
)

// BenchmarkCompile compiles and releases every parsec workload at the
// instruction budget of a fleet job (10k instructions per workload): the
// setup cost a short job pays before its first simulated instruction.
// B/op and allocs/op are the noise-free half of the signal.
func BenchmarkCompile(b *testing.B) {
	cfg := suites.DefaultConfig()
	cfg.Instructions = 10_000
	cfg.Samples = 20
	s, err := suites.ByName("parsec", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range s.Specs {
			prog, err := workload.Compile(spec)
			if err != nil {
				b.Fatal(err)
			}
			prog.Release()
		}
	}
}
