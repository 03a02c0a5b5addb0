package kernel

// WaitQueue is the kernel's block/wake primitive (the moral equivalent of a
// futex wait queue). Because exactly one simulated thread runs at a time,
// the check-then-wait pattern
//
//	for !cond() {
//	    ex.Wait(wq)
//	}
//
// is free of lost wakeups by construction.
type WaitQueue struct {
	k       *Kernel
	Name    string
	waiters fifo[*Thread]
}

// NewWaitQueue returns an empty queue. The name is for diagnostics only.
// Queues come out of a per-kernel slab (see Kernel.wqSlab).
func (k *Kernel) NewWaitQueue(name string) *WaitQueue {
	if len(k.wqSlab) == 0 {
		k.wqSlab = make([]WaitQueue, 16)
	}
	wq := &k.wqSlab[0]
	k.wqSlab = k.wqSlab[1:]
	wq.k = k
	wq.Name = name
	return wq
}

// InitWaitQueue readies a caller-embedded WaitQueue value, preserving any
// waiter backing array an earlier use left behind. Structures that live
// per-transaction (the binder reply queue) embed the queue by value and
// re-init it on reuse instead of allocating a fresh one per call.
func (k *Kernel) InitWaitQueue(wq *WaitQueue, name string) {
	wq.k = k
	wq.Name = name
	wq.waiters.reset()
}

// Wait blocks the calling thread on wq until another thread wakes it. The
// futex-syscall cost is charged on entry.
func (ex *Exec) Wait(wq *WaitQueue) {
	ex.Syscall(180, 30)
	wq.waiters.push(ex.T)
	ex.ctx.Block()
}

// WaitFree blocks without charging a syscall (for callers that already
// accounted the kernel entry themselves).
func (ex *Exec) WaitFree(wq *WaitQueue) {
	wq.waiters.push(ex.T)
	ex.ctx.Block()
}

// WakeOne wakes the longest-waiting thread; it reports whether anything was
// woken.
func (wq *WaitQueue) WakeOne() bool {
	for {
		t, ok := wq.waiters.pop()
		if !ok {
			return false
		}
		if t.State == StateBlocked {
			wq.k.Wake(t)
			return true
		}
	}
}

// WakeAll wakes every waiter, returning the count woken.
func (wq *WaitQueue) WakeAll() int {
	n := 0
	for wq.WakeOne() {
		n++
	}
	return n
}

// MsgQueue is a deterministic FIFO mailbox built on two wait queues. It
// backs Android Looper message queues, Binder transaction queues, media
// buffer queues, and the storage request queue.
type MsgQueue struct {
	Name string
	// notEmpty is embedded by value: a mailbox and its wait queue have
	// identical lifetimes, so splitting them across two allocations only
	// added per-queue cost (every process spawn creates several).
	notEmpty WaitQueue
	msgs     fifo[any]
}

// NewMsgQueue returns an empty unbounded mailbox. Mailboxes come out of a
// per-kernel slab (see Kernel.msgqSlab); the embedded wait queue shares the
// mailbox name rather than minting a suffixed copy per queue.
func (k *Kernel) NewMsgQueue(name string) *MsgQueue {
	if len(k.msgqSlab) == 0 {
		k.msgqSlab = make([]MsgQueue, 16)
	}
	q := &k.msgqSlab[0]
	k.msgqSlab = k.msgqSlab[1:]
	q.Name = name
	q.notEmpty.k = k
	q.notEmpty.Name = name
	return q
}

// Send enqueues m and wakes one receiver. Sending charges a small kernel
// cost (the futex wake). Pointer-shaped messages avoid the interface boxing
// allocation; the looper and input paths rely on that.
func (ex *Exec) Send(q *MsgQueue, m any) {
	ex.Syscall(140, 24)
	q.msgs.push(m)
	q.notEmpty.WakeOne()
}

// Recv dequeues the oldest message, blocking while the queue is empty.
func (ex *Exec) Recv(q *MsgQueue) any {
	for q.Len() == 0 {
		ex.Wait(&q.notEmpty)
	}
	m, _ := q.TryRecv()
	return m
}

// TryRecv dequeues without blocking; ok is false when the queue is empty.
func (q *MsgQueue) TryRecv() (m any, ok bool) { return q.msgs.pop() }

// Peek returns the oldest queued message without dequeuing it; ok is false
// when the queue is empty. The ANR watchdog uses it to age a looper's head
// message without stealing work from the looper's own thread.
func (q *MsgQueue) Peek() (m any, ok bool) { return q.msgs.peek() }

// Len reports queued message count.
func (q *MsgQueue) Len() int { return q.msgs.len() }
