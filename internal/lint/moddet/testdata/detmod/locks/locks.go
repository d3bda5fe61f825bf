// Package locks exercises the interprocedural lockflow pass: "// guarded
// by" annotations hold only while every call chain into a lock-free
// accessor acquires the mutex first.
package locks

import "sync"

// Counter is a mutex-protected counter with an annotated field.
type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// NewCounter fills in guarded state before the value escapes (exempt:
// caller-private until shared).
func NewCounter() *Counter {
	c := &Counter{}
	c.n = 1
	return c
}

// Incr acquires the mutex and delegates to bump.
func (c *Counter) Incr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump()
}

// bump relies on every caller holding mu — true here, so no finding.
func (c *Counter) bump() { c.n++ }

// Peek reads n without the lock from an exported method.
func (c *Counter) Peek() int {
	return c.n // want lockflow "exported functions must acquire it themselves"
}

// Racy reaches leak without acquiring mu.
func (c *Counter) Racy() int { return c.leak() }

// leak is protected only if every caller locks; Racy does not.
func (c *Counter) leak() int {
	return c.n // want lockflow "can reach it without the lock"
}

// Bad carries an annotation naming a nonexistent mutex field.
type Bad struct {
	x int // guarded by missing — want lockflow "names no field of struct Bad"
}

// touch keeps x referenced so the fixture stays vet-plausible.
func (b *Bad) touch() int { return b.x }

// Tally carries explicit annotations on every field the mutex guards;
// limit is above the mutex and unannotated, so it is not guarded.
type Tally struct {
	limit int

	mu      sync.Mutex
	n       int   // guarded by mu
	history []int // guarded by mu
}

// Peek reads a guarded field with no lock.
func (t *Tally) Peek() int {
	return t.n // want lockflow "(*locks.Tally).Peek touches Tally.n"
}

// Drain reads and writes guarded fields with no lock.
func (t *Tally) Drain() []int {
	out := t.history // want lockflow "(*locks.Tally).Drain touches Tally.history"
	t.n = 0          // want lockflow "(*locks.Tally).Drain touches Tally.n"
	return out
}

// Limit touches only unguarded state.
func (t *Tally) Limit() int { return t.limit }
