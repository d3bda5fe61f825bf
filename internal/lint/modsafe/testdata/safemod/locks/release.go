package locks

// This file exercises releasetrack's built-in lock obligations: every
// Lock/RLock on a sync.Mutex or sync.RWMutex must be released on every
// path out of the function that took it, with no annotation needed.

import "sync"

// Counter is a plain mutex-protected counter.
type Counter struct {
	mu sync.Mutex
	n  int
}

// LeakOnPanic locks but never unlocks.
func (c *Counter) LeakOnPanic() {
	c.mu.Lock() // want releasetrack 'lock "c.mu" acquired from (*sync.Mutex).Lock escapes unreleased on the path exiting at line 19'
	c.n++
}

// EarlyReturn can leave with the lock held.
func (c *Counter) EarlyReturn(stop bool) {
	c.mu.Lock() // want releasetrack 'lock "c.mu" acquired from (*sync.Mutex).Lock escapes unreleased on the path exiting at line 25'
	if stop {
		return
	}
	c.n++
	c.mu.Unlock()
}

// ElseIf takes the lock inside an else-if arm and leaks it on that arm's
// early return.
func (c *Counter) ElseIf(a, b bool) {
	if a {
		c.n = 0
	} else if b {
		c.mu.Lock() // want releasetrack 'lock "c.mu" acquired from (*sync.Mutex).Lock escapes unreleased on the path exiting at line 39'
		if c.n > 0 {
			return
		}
		c.mu.Unlock()
	}
}

// TypeSwitch leaks the lock from inside a type-switch case.
func (c *Counter) TypeSwitch(v any) {
	switch v.(type) {
	case int:
		c.mu.Lock() // want releasetrack 'lock "c.mu" acquired from (*sync.Mutex).Lock escapes unreleased on the path exiting at line 51'
		if c.n > 0 {
			return
		}
		c.mu.Unlock()
	}
}

// Select leaks the lock from inside a select case.
func (c *Counter) Select(ch chan int) {
	select {
	case v := <-ch:
		c.mu.Lock() // want releasetrack 'lock "c.mu" acquired from (*sync.Mutex).Lock escapes unreleased on the path exiting at line 63'
		if v > 0 {
			return
		}
		c.n += v
		c.mu.Unlock()
	default:
	}
}

// Goroutine leaks the lock from a goroutine's function literal, which is
// checked as a function of its own.
func (c *Counter) Goroutine(stop bool) {
	go func() {
		c.mu.Lock() // want releasetrack 'lock "c.mu" acquired from (*sync.Mutex).Lock escapes unreleased on the path exiting at line 77'
		if stop {
			return
		}
		c.n++
		c.mu.Unlock()
	}()
}

// Registry mixes a reader lock with the same mistake.
type Registry struct {
	mu    sync.RWMutex
	items map[string]int
}

// Leaky returns early with the reader lock held.
func (r *Registry) Leaky(key string) int {
	r.mu.RLock() // want releasetrack 'read-lock "r.mu" acquired from (*sync.RWMutex).RLock escapes unreleased on the path exiting at line 95'
	v, ok := r.items[key]
	if !ok {
		return -1
	}
	r.mu.RUnlock()
	return v
}

// Gauge shows the sanctioned locking patterns: no findings.
type Gauge struct {
	name string // immutable after construction: not guarded

	mu  sync.RWMutex
	val float64 // guarded by mu
}

// Name touches only unguarded state.
func (g *Gauge) Name() string { return g.name }

// Set uses the canonical defer pairing.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.val = v
}

// Get reads under the reader lock; returning guarded state does not hand
// the lock off.
func (g *Gauge) Get() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.val
}

// Swap releases inline before every return.
func (g *Gauge) Swap(v float64) float64 {
	g.mu.Lock()
	old := g.val
	g.val = v
	g.mu.Unlock()
	return old
}

// Bump releases inline on a branch before the shared return.
func (g *Gauge) Bump(by float64) {
	if by == 0 {
		return
	}
	g.mu.Lock()
	g.val += by
	g.mu.Unlock()
}

// Drop releases on both arms of an early-return branch.
func (g *Gauge) Drop(cond bool) float64 {
	g.mu.Lock()
	if cond {
		g.mu.Unlock()
		return 0
	}
	v := g.val
	g.mu.Unlock()
	return v
}
