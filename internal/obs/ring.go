package obs

import "sync/atomic"

// ring is the bounded buffer behind Tracer and EventLog: once capacity
// entries are held the oldest is overwritten and counted in dropped, so
// a long soak with an observer wired holds memory flat. capacity <= 0
// means unbounded. The owner serializes every method under its own
// lock; only dropped may be read without it.
type ring[T any] struct {
	buf      []T // buf[head] is the oldest retained entry
	head     int
	capacity int
	dropped  atomic.Int64
}

func (r *ring[T]) push(v T) {
	if r.capacity > 0 && len(r.buf) >= r.capacity {
		r.buf[r.head] = v
		r.head = (r.head + 1) % len(r.buf)
		r.dropped.Add(1)
		return
	}
	r.buf = append(r.buf, v)
}

// ordered returns a copy of the retained entries, oldest first.
func (r *ring[T]) ordered() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// setCapacity re-bounds the ring; when shrinking, the oldest entries
// beyond the new bound are evicted and counted as dropped.
func (r *ring[T]) setCapacity(n int) {
	kept := r.ordered()
	if n > 0 && len(kept) > n {
		r.dropped.Add(int64(len(kept) - n))
		kept = kept[len(kept)-n:]
	}
	r.buf, r.head, r.capacity = kept, 0, n
}

// reset discards the retained entries; the dropped tally is lifetime.
func (r *ring[T]) reset() { r.buf, r.head = nil, 0 }
