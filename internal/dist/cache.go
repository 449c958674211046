package dist

import "container/list"

// lru is a fixed-capacity least-recently-used result cache keyed by spec
// hash, guarded by the coordinator's mutex. Values are immutable once
// inserted (a finished campaign's aggregated summary), so Get hands out
// shared pointers.
type lru struct {
	cap   int
	order *list.List               // front = most recent
	byKey map[string]*list.Element // value: *lruEntry
}

type lruEntry struct {
	key string
	val *Result
}

func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached result and marks it most recently used.
func (c *lru) Get(key string) (*Result, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Add inserts (or refreshes) a result, evicting the least recently used
// entry when over capacity.
func (c *lru) Add(key string, val *Result) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
	}
}
