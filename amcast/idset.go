package amcast

import "math/bits"

// IDSet is an exact set of message ids: the delivered (or seen) index of
// an engine, which only ever grows. An id is one bit. Ids are grouped by
// client (the id's high 24 bits) into fixed pages of idPageIDs
// consecutive sequence numbers, so a page never spans two clients; a
// page is allocated when its first id is added. The pages are indexed by
// their key (id >> idPageShift) in one ascending slice searched by
// bisection, and the page last touched is cached: a client's consecutive
// ids fall in one page and cost no search at all.
//
// It is an index, not a format: engines persist what they delivered in
// their own encodings and rebuild the set on restore. The zero value is
// an empty set. Not safe for concurrent use — Has updates the cache.
type IDSet struct {
	keys  []uint64  // page keys, ascending
	pages []*idPage // pages[i] holds the ids of keys[i]
	n     int

	lastKey  uint64
	lastPage *idPage // nil until a page is touched
}

// idPageShift sets the page size: 4096 ids, a 512-byte page. A client's
// ids at a group it serves are near-contiguous, and there a page costs
// about 0.17 bytes per id against a map[MsgID]struct{}'s ≈24; a group
// that sees every 400th id pays ≈52 bytes per id, but such a group
// holds few ids, so over a whole deployment the set stays far below the
// map (BenchmarkIDSet reports densities 1, 1/12 and 1/400).
const (
	idPageShift = 12
	idPageIDs   = 1 << idPageShift
)

type idPage [idPageIDs / 64]uint64

// page returns the page holding key, or nil; a found page becomes the
// cached one.
func (s *IDSet) page(key uint64) *idPage {
	if s.lastPage != nil && s.lastKey == key {
		return s.lastPage
	}
	i := s.search(key)
	if i == len(s.keys) || s.keys[i] != key {
		return nil
	}
	s.lastKey, s.lastPage = key, s.pages[i]
	return s.lastPage
}

// search returns the index of the first key not below key.
func (s *IDSet) search(key uint64) int {
	lo, hi := 0, len(s.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Has reports whether id is in the set.
func (s *IDSet) Has(id MsgID) bool {
	p := s.page(uint64(id) >> idPageShift)
	if p == nil {
		return false
	}
	b := uint64(id) & (idPageIDs - 1)
	return p[b>>6]&(1<<(b&63)) != 0
}

// Add inserts id and reports whether it was absent.
func (s *IDSet) Add(id MsgID) bool {
	key := uint64(id) >> idPageShift
	p := s.page(key)
	if p == nil {
		i := s.search(key)
		p = new(idPage)
		s.keys = append(s.keys, 0)
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = key
		s.pages = append(s.pages, nil)
		copy(s.pages[i+1:], s.pages[i:])
		s.pages[i] = p
		s.lastKey, s.lastPage = key, p
	}
	b := uint64(id) & (idPageIDs - 1)
	w, bit := &p[b>>6], uint64(1)<<(b&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	s.n++
	return true
}

// Len returns the number of ids in the set.
func (s *IDSet) Len() int { return s.n }

// Ascend calls f on every id in ascending order until f returns false.
func (s *IDSet) Ascend(f func(id MsgID) bool) {
	for i, key := range s.keys {
		base := key << idPageShift
		for w, word := range s.pages[i] {
			for word != 0 {
				if !f(MsgID(base | uint64(w<<6+bits.TrailingZeros64(word)))) {
					return
				}
				word &= word - 1
			}
		}
	}
}

// Clone returns an independent copy; its pages share one allocation.
func (s *IDSet) Clone() *IDSet {
	c := &IDSet{keys: append([]uint64(nil), s.keys...), pages: make([]*idPage, len(s.pages)), n: s.n}
	slab := make([]idPage, len(s.pages))
	for i, p := range s.pages {
		slab[i] = *p
		c.pages[i] = &slab[i]
	}
	return c
}
