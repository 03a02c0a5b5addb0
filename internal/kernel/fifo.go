package kernel

// fifo is the head-indexed ring behind the run queue, wait queues and
// mailboxes. pop nils the vacated slot, so popped values are not retained,
// and push reuses the slack ahead of the head before growing. Slicing the
// head off instead (buf = buf[1:]) would walk the slice base forward and
// force append to reallocate on nearly every push.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v, true
}

func (q *fifo[T]) peek() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	return q.buf[q.head], true
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// reset empties the queue, keeping the backing array for reuse.
func (q *fifo[T]) reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}
