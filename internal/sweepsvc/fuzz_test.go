package sweepsvc

import (
	"bytes"
	"reflect"
	"testing"

	"cmpsched/internal/sweep"
)

// maxFuzzPoints bounds the expansions FuzzDecodeRequest performs.  A grid
// multiplies its axes, so an input of a few hundred bytes can name millions
// of points; expanding those would exhaust the fuzzer's memory without
// reaching code the smaller grids do not.
const maxFuzzPoints = 1 << 14

// gridSize returns an upper bound on the number of points a request
// expands to, without expanding it.
func gridSize(r *Request) int {
	if len(r.Points) > 0 {
		return len(r.Points)
	}
	configs := 0
	for _, tbl := range r.tables() {
		cfgs, _ := sweep.TableConfigs(tbl)
		configs += len(cfgs)
	}
	return len(r.Workloads) * configs * len(r.topologies()) * (len(r.schedulers()) + 1)
}

// FuzzDecodeRequest hands the wire decoder arbitrary bytes.  Whatever the
// bytes, DecodeRequest, Validate and ExpandPoints must not panic; every
// point of a successful expansion must validate on its own; and the
// points-only request listing that expansion must expand to the same list,
// which is what lets sweepctl shard a grid into per-point submissions.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		if gridSize(req) > maxFuzzPoints {
			return
		}
		points, err := req.ExpandPoints()
		if err != nil {
			return
		}
		for i, p := range points {
			if err := p.validate(); err != nil {
				t.Fatalf("expanded point %d %+v does not validate: %v", i, p, err)
			}
		}
		again, err := (&Request{Points: points, Scale: req.Scale, Quick: req.Quick}).ExpandPoints()
		if err != nil {
			t.Fatalf("points request from the expansion of %q: %v", data, err)
		}
		if !reflect.DeepEqual(again, points) {
			t.Fatalf("points request expands differently:\n got %+v\nwant %+v", again, points)
		}
	})
}
