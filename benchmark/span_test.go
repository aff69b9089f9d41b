package main

import "testing"

// sp builds a span by hand: the fold only reads these fields.
func sp(layer layerID, parent int32, start, end int64) span {
	return span{layer: layer, parent: parent, start: start, end: end}
}

func TestFoldSelfTime(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[layerID]layerTotals
	}{
		{
			name:  "leaf keeps its whole duration",
			spans: []span{sp(layEngine, noParent, 10, 30)},
			want:  map[layerID]layerTotals{layEngine: {calls: 1, durNs: 20, selfNs: 20}},
		},
		{
			name: "nested: each level loses what the next covers",
			spans: []span{
				sp(layDurable, noParent, 0, 100),
				sp(layStore, 0, 10, 90),
				sp(layEngine, 1, 20, 50),
			},
			want: map[layerID]layerTotals{
				layDurable: {calls: 1, durNs: 100, selfNs: 20},
				layStore:   {calls: 1, durNs: 80, selfNs: 50},
				layEngine:  {calls: 1, durNs: 30, selfNs: 30},
			},
		},
		{
			name: "siblings apart: both are subtracted",
			spans: []span{
				sp(layStore, noParent, 0, 100),
				sp(layEngine, 0, 10, 20),
				sp(layEngine, 0, 60, 90),
			},
			want: map[layerID]layerTotals{
				layStore:  {calls: 1, durNs: 100, selfNs: 60},
				layEngine: {calls: 2, durNs: 40, selfNs: 40},
			},
		},
		{
			name: "overlapping children count once: the union, not the sum",
			spans: []span{
				sp(layStore, noParent, 0, 100),
				sp(layEngine, 0, 10, 50),
				sp(layStoreFeed, 0, 30, 70),
				sp(layStoreRead, 0, 40, 45), // inside both
			},
			want: map[layerID]layerTotals{
				layStore:     {calls: 1, durNs: 100, selfNs: 40}, // union [10,70)
				layEngine:    {calls: 1, durNs: 40, selfNs: 40},
				layStoreFeed: {calls: 1, durNs: 40, selfNs: 40},
				layStoreRead: {calls: 1, durNs: 5, selfNs: 5},
			},
		},
		{
			name: "a child reaching past its parent is clipped to it",
			spans: []span{
				sp(layStore, noParent, 10, 50),
				sp(layEngine, 0, 0, 20),
				sp(layEngine, 0, 40, 80),
			},
			want: map[layerID]layerTotals{
				layStore:  {calls: 1, durNs: 40, selfNs: 20},
				layEngine: {calls: 2, durNs: 60, selfNs: 60},
			},
		},
		{
			name: "grandchildren are their parent's business only",
			spans: []span{
				sp(layDurable, noParent, 0, 100),
				sp(layStore, 0, 40, 60),
				sp(layEngine, 1, 45, 55),
			},
			want: map[layerID]layerTotals{
				layDurable: {calls: 1, durNs: 100, selfNs: 80},
				layStore:   {calls: 1, durNs: 20, selfNs: 10},
				layEngine:  {calls: 1, durNs: 10, selfNs: 10},
			},
		},
	}
	for _, tc := range cases {
		got := fold(tc.spans)
		for l := layerID(0); l < numLayers; l++ {
			if got[l] != tc.want[l] {
				t.Errorf("%s: layer %s = %+v, want %+v", tc.name, layerNames[l], got[l], tc.want[l])
			}
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder(4)
	outer := r.begin(layStore, 7)
	inner := r.begin(layEngine, 7)
	r.end(inner, 3)
	sibling := r.begin(layEngine, 8)
	r.end(sibling, 0)
	r.end(outer, 0)
	root := r.begin(layGtpccNext, 0)
	r.end(root, 0)
	wantParents := []int32{noParent, outer, outer, noParent}
	for i, want := range wantParents {
		if got := r.spans[i].parent; got != want {
			t.Errorf("span %d parent = %d, want %d", i, got, want)
		}
		if s := r.spans[i]; s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if r.spans[inner].bytes != 3 || r.spans[inner].msg != 7 {
		t.Errorf("inner span = %+v, want 3 bytes of message 7", r.spans[inner])
	}
	var none *recorder
	none.end(none.begin(layStore, 1), 0) // the undecorated run: must not panic
}
