package service

import (
	"context"
	"sync"

	"branchcorr/internal/obs"
)

// payloadCache memoizes canonical response payloads by request identity.
// It is a single-flight cache: concurrent requests for the same key
// share one computation, and a completed entry replays its exact bytes —
// which is what makes a cache hit trivially byte-identical to the
// computation it replaced. Errors are never cached (the failed entry is
// removed before waiters wake, so the next request retries), and
// completed entries are evicted FIFO once the cache exceeds its
// capacity.
type payloadCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	order   []string // completed keys, oldest first

	hits, misses *obs.Counter
}

type cacheEntry struct {
	done  chan struct{}
	bytes []byte
	err   error
}

// newPayloadCache builds a cache holding at most capacity completed
// payloads, counting service.cache.hits / service.cache.misses into reg.
func newPayloadCache(capacity int, reg *obs.Registry) *payloadCache {
	return &payloadCache{
		cap:     capacity,
		entries: make(map[string]*cacheEntry),
		hits:    reg.Counter("service.cache.hits"),
		misses:  reg.Counter("service.cache.misses"),
	}
}

// do returns the payload for key, computing it at most once across
// concurrent callers. The compute function runs without the cache lock
// held. A caller coalesced onto another's flight waits only as long as
// its own ctx lives: when ctx ends first it returns a canceled error,
// and the flight and its other waiters carry on untouched. (The caller
// that starts a flight runs it to completion, since the others share
// it.)
func (c *payloadCache) do(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
		default:
			// Not finished: a completed entry always wins over an
			// ended context, so only a real wait can be abandoned.
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, canceledErr(ctx.Err())
			}
		}
		if e.err == nil {
			c.hits.Inc()
		}
		return e.bytes, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Inc()

	e.bytes, e.err = compute()

	c.mu.Lock()
	if e.err != nil {
		// Failed flights are not cached: drop the entry so the next
		// request recomputes. Callers already waiting on this flight
		// share its error.
		delete(c.entries, key)
	} else {
		c.order = append(c.order, key)
		for len(c.order) > c.cap {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
	close(e.done)
	return e.bytes, e.err
}

// spellingCache memoizes the canonical form of a request part (a spec
// list, a grid) by its wire spelling. Deriving the canonical form
// constructs the predictors or the grid, which allocates every table;
// with the memo a repeated request keys the payload cache without
// constructing anything, and construction runs only on a payload cache
// miss. The memo is cleared whenever it reaches its capacity.
type spellingCache struct {
	mu    sync.Mutex
	cap   int
	canon map[string]string
}

func newSpellingCache(capacity int) *spellingCache {
	return &spellingCache{cap: capacity, canon: make(map[string]string)}
}

// get returns the canonical form of spelling, calling derive on a miss.
// Errors are not cached.
func (c *spellingCache) get(spelling string, derive func() (string, error)) (string, error) {
	c.mu.Lock()
	canon, ok := c.canon[spelling]
	c.mu.Unlock()
	if ok {
		return canon, nil
	}
	canon, err := derive()
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	if len(c.canon) >= c.cap {
		clear(c.canon)
	}
	c.canon[spelling] = canon
	c.mu.Unlock()
	return canon, nil
}
