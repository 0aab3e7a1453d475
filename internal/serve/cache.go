package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// Key addresses a compilation by content: SHA-256 over the canonicalized
// semantic options and the source text. Two requests with the same key are
// the same compilation by construction — the compiler is deterministic at
// every Parallelism setting (cross-checked continuously by the fuzz
// oracle), so the key never needs to mention who asked or how many backend
// workers built it.
func Key(src string, o Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s", o.canonical(), src)
	return hex.EncodeToString(h.Sum(nil))
}

// lru is a least-recently-used table under a budget, and the one such table
// the server has: the artifact cache and the snapshot store budget bytes and
// charge an entry its size, the run memo bounds its entries and charges each
// 1 (results are small: an exit code, captured output and a Stats struct).
// Values are handed out without copying — artifacts are immutable (see
// core.Artifact), results and snapshots are never written after they are
// stored — so only the recency list and the map need the lock.
type lru[V any] struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // of *lruEntry[V], front = most recent
	byKey  map[string]*list.Element
	// gauge publishes the owner's metrics: it is called under the lock after
	// every change with the cost held, the entries held and how many the
	// change evicted.
	gauge func(used int64, entries int, evicted int64)
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int64
}

func newLRU[V any](budget int64, gauge func(used int64, entries int, evicted int64)) *lru[V] {
	return &lru[V]{budget: budget, order: list.New(), byKey: map[string]*list.Element{}, gauge: gauge}
}

// get returns the value stored under key and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var none V
		return none, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add stores val at its cost and evicts least-recently-used entries until the
// budget holds. A key already present keeps the entry it has — keys are
// content addresses, so a racing producer of the same thing finished first.
// An entry larger than the whole budget is still kept alone (the alternative
// — producing it again on every request — is strictly worse); the next
// insertion evicts it.
func (c *lru[V]) add(key string, val V, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val, cost: cost})
	c.used += cost
	c.evict()
}

// remove forgets key, if it is held.
func (c *lru[V]) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.drop(el)
		c.gauge(c.used, c.order.Len(), 0)
	}
}

// recost charges the entry under key, if it is held, what it costs now — an
// artifact grows while machines build on its plan — and evicts to the budget
// as add does.
func (c *lru[V]) recost(key string, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return
	}
	e := el.Value.(*lruEntry[V])
	c.used += cost - e.cost
	e.cost = cost
	c.evict()
}

// evict drops least-recently-used entries until the budget holds or one entry
// is left, and publishes what the table then holds.
func (c *lru[V]) evict() {
	var evicted int64
	for ; c.used > c.budget && c.order.Len() > 1; evicted++ {
		c.drop(c.order.Back())
	}
	c.gauge(c.used, c.order.Len(), evicted)
}

func (c *lru[V]) drop(el *list.Element) {
	e := c.order.Remove(el).(*lruEntry[V])
	delete(c.byKey, e.key)
	c.used -= e.cost
}

// artifactCost estimates an artifact's resident size. The dominant terms
// are the linked instruction words, the retained IR (both sides of the
// differential oracle) and — once it has run — the simulator's plan of the
// image with the regions machines have built on it, up to vliw's region budget
// times the image (core.Artifact.PlanBytes); the constant per-op factor is a
// measured approximation, not an accounting guarantee — the budget bounds the
// cache to the right order of magnitude. The plan grows while runs build on
// it: Server.recharge charges the difference.
func artifactCost(key string, art *core.Artifact) int64 {
	res := art.Result()
	fixed, _, ops := res.Image.CodeSizes()
	return int64(len(key)) + fixed + 96*int64(ops) + 256 + art.PlanBytes()
}

// runKey addresses a deterministic execution: the artifact key plus every
// semantic run option — the resolved tier name, so each of the four tiers
// memoizes separately (their results must be identical, but the key keeps
// the caches honest instead of assuming it). The simulator is a
// deterministic function of the image (no wall clock, no randomness —
// performance counters included), so one completed run answers every later
// identical request.
func runKey(artKey string, tier vliw.Tier, maxCycles int64) string {
	return fmt.Sprintf("%s/tier=%s/max=%d", artKey, tier, maxCycles)
}
