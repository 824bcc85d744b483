package sweepsvc

import (
	"bytes"
	"reflect"
	"testing"
)

// maxFuzzPoints bounds the expansions FuzzDecodeRequest performs.  A grid
// multiplies its axes, so an input of a few hundred bytes can name millions
// of points; expanding those would exhaust the fuzzer's memory without
// reaching code the smaller grids do not.
const maxFuzzPoints = 1 << 14

// FuzzDecodeRequest hands the wire decoder arbitrary bytes.  Whatever the
// bytes, DecodeRequest, Validate and ExpandPoints must not panic.  A
// successful expansion must have exactly Size points (the count the
// service holds to its job limit before expanding), every point must
// validate on its own, and the points-only request listing the expansion
// must expand to the same list, which is what lets sweepctl shard a grid
// into per-point submissions.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		size := req.Size()
		if size > maxFuzzPoints {
			return
		}
		points, err := req.ExpandPoints()
		if err != nil {
			return
		}
		if len(points) != size {
			t.Fatalf("Size() = %d, but %q expands to %d points", size, data, len(points))
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
