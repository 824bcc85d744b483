// Package minheap is a typed binary min-heap for the schedulers' ready
// pools (package sched).
//
// container/heap's interface{} methods box every pushed element onto the Go
// heap, which meant one allocation per ready task.  This heap is generic over
// the element type with ordering supplied by the element's Less method, so it
// monomorphizes to direct calls on value types: pushes and pops are
// allocation-free slice operations once the backing array has grown to its
// working size (or was sized by New).  The simulator's event queue does not
// use it: its events pack into integer keys, which a concrete heap compares
// inline (see package cmpsim).
//
// The sift algorithms mirror container/heap's exactly, so for element types
// whose order is total (no Less ties) the pop sequence is identical —
// which is what lets the schedulers swap implementations without perturbing
// their pick order.
package minheap

// Ordered is implemented by heap elements: Less reports whether the
// receiver sorts strictly before other.
type Ordered[T any] interface {
	Less(other T) bool
}

// Heap is a binary min-heap.  The zero value is an empty heap; New
// preallocates capacity.
type Heap[T Ordered[T]] struct {
	s []T
}

// New returns an empty heap whose backing array holds capacity elements
// before any push allocates.
func New[T Ordered[T]](capacity int) *Heap[T] {
	return &Heap[T]{s: make([]T, 0, capacity)}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// Min returns the smallest element without removing it.  Valid only when
// Len() > 0.
func (h *Heap[T]) Min() T { return h.s[0] }

// Reset empties the heap, keeping the backing array.
func (h *Heap[T]) Reset() { h.s = h.s[:0] }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.s = append(h.s, x)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].Less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes and returns the smallest element.  Valid only when Len() > 0.
func (h *Heap[T]) Pop() T {
	s := h.s
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	h.s = s[:last]
	s = h.s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && s[l].Less(s[smallest]) {
			smallest = l
		}
		if r < last && s[r].Less(s[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
