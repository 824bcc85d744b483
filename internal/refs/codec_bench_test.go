package refs

import "testing"

// benchStream is a task-shaped stream for the codec benchmarks: a line scan
// interleaved with scattered reads, every fourth reference a write.
func benchStream() []Ref {
	rs, _ := NewInterleave(
		&Scan{Base: 1 << 30, Bytes: 64 << 10, LineBytes: 64, InstrsPerRef: 3, Passes: 1},
		&Random{Base: 1 << 34, Bytes: 1 << 24, LineBytes: 64, Count: 1024, Seed: 7, InstrsPerRef: 5},
	).Emit(nil)
	for i := range rs {
		rs[i].Write = i%4 == 0
	}
	return rs
}

// BenchmarkReaderRead decodes a recorded stream in the event loop's blocks
// of 32 references; ns/op divided by the stream length is the decode cost
// per reference.
func BenchmarkReaderRead(b *testing.B) {
	r, err := NewRecorded(benchStream(), 0)
	if err != nil {
		b.Fatal(err)
	}
	var blk [32]Ref
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := r.Reader()
		for rd.Read(blk[:]) > 0 {
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*int(r.Len())), "ns/ref")
	b.ReportMetric(float64(len(r.enc))/float64(r.Len()), "B/ref")
}

// BenchmarkEncode packs the same stream: the cost NewRecorded pays for each
// stream a DAG records.
func BenchmarkEncode(b *testing.B) {
	rs := benchStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := encode(rs); err != nil {
			b.Fatal(err)
		}
	}
}
