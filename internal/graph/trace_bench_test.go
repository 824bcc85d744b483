package graph

import (
	"testing"

	"cmpsched/internal/refs"
)

// Generator-side micro-benchmarks for the trace accumulator: touch is the
// per-edge cost of every kernel's host walk, span the per-region cost of the
// init/reduce tasks.  Both sit on the hoisted line-shift arithmetic (one
// shift per touch instead of two divisions), and gen on the recording codec,
// so these pin the DAG-build side of the trace-memoization work; the
// simulate-side win is tracked by the facade's BenchmarkSimulate* suite.

func BenchmarkTraceTouch(b *testing.B) {
	tr := newTrace(Costs{}.withDefaults())
	// A scatter over 4096 lines with every 4th touch a write: roughly the
	// shape of a BFS explore task's distance-vector gathers.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.reset()
		for j := 0; j < 4096; j++ {
			addr := uint64(j*2654435761) % (4096 * 128)
			tr.touch(addr, j%4 == 0, 8)
		}
	}
}

func BenchmarkTraceSpan(b *testing.B) {
	tr := newTrace(Costs{}.withDefaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.reset()
		tr.span(0, 4096*128, true, 1)
	}
}

// BenchmarkTraceGenRecorded measures the full accumulate-and-record cycle
// of one 256-line task stream: the trace walk, then encoding the stream
// into its arena as dag.AddTask does.
func BenchmarkTraceGenRecorded(b *testing.B) {
	tr := newTrace(Costs{}.withDefaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.reset()
		for j := 0; j < 256; j++ {
			tr.touch(uint64(j)*128, false, 4)
		}
		p := tr.gen(100)
		if r, err := refs.NewRecorded(p.Refs, p.Tail); err != nil || r.Len() == 0 {
			b.Fatalf("recording %v, error %v", r, err)
		}
	}
}
