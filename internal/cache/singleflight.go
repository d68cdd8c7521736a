package cache

import "sync"

// flight coalesces concurrent loads of the same key into one execution:
// the first caller runs fn, everyone else arriving before it finishes
// blocks and shares the result. This keeps N simultaneous queries for the
// same cold footer from triggering N identical decodes.
type flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// do runs fn once per key at a time. shared reports whether the result
// was produced by another caller's in-flight execution.
func (f *flight) do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall)
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
