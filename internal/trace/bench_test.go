package trace_test

import (
	"testing"

	"perspector/internal/benchset"
)

// BenchmarkStreamIngest measures streaming-parse throughput: one op
// parses ~1 MiB of instruction log (b.SetBytes reports MB/s). The body
// is shared with cmd/benchjson through internal/benchset.
func BenchmarkStreamIngest(b *testing.B) { benchset.StreamIngest(b) }
