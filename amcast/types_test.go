package amcast

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestMsgIDRoundTrip(t *testing.T) {
	f := func(client uint16, seq uint32) bool {
		id := NewMsgID(int(client), uint64(seq))
		return id.Client() == int(client) && id.Seq() == uint64(seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMsgIDOrderingFollowsSeq(t *testing.T) {
	a := NewMsgID(1, 5)
	b := NewMsgID(1, 6)
	if !(a < b) {
		t.Fatal("ids of one client must order by sequence")
	}
	if NewMsgID(2, 0) < NewMsgID(1, 1<<30) {
		t.Fatal("client index must dominate ordering")
	}
}

func TestMsgIDString(t *testing.T) {
	if got := NewMsgID(3, 17).String(); got != "3/17" {
		t.Fatalf("String = %q", got)
	}
}

func TestNodeIDKinds(t *testing.T) {
	g := GroupNode(7)
	if g.IsClient() {
		t.Fatal("group node classified as client")
	}
	if g.Group() != 7 {
		t.Fatalf("Group() = %d", g.Group())
	}
	c := ClientNode(42)
	if !c.IsClient() {
		t.Fatal("client node not classified as client")
	}
	if c.ClientIndex() != 42 {
		t.Fatalf("ClientIndex = %d", c.ClientIndex())
	}
	if g.String() != "g7" || c.String() != "c42" {
		t.Fatalf("strings: %q %q", g, c)
	}
}

func TestMessageDstHelpers(t *testing.T) {
	m := Message{ID: 1, Dst: []GroupID{2, 5, 9}}
	for _, g := range m.Dst {
		if !m.HasDst(g) {
			t.Fatalf("HasDst(%d) = false", g)
		}
	}
	for _, g := range []GroupID{1, 3, 10} {
		if m.HasDst(g) {
			t.Fatalf("HasDst(%d) = true", g)
		}
	}
	if m.IsLocal() || !m.IsGlobal() {
		t.Fatal("3-destination message misclassified")
	}
	local := Message{Dst: []GroupID{4}}
	if !local.IsLocal() || local.IsGlobal() {
		t.Fatal("1-destination message misclassified")
	}
}

func TestHeaderStripsPayload(t *testing.T) {
	m := Message{ID: 1, Dst: []GroupID{1}, Payload: []byte("xyz")}
	h := m.Header()
	if h.Payload != nil {
		t.Fatal("header kept payload")
	}
	if m.Payload == nil {
		t.Fatal("Header mutated the original")
	}
	if h.ID != m.ID || !reflect.DeepEqual(h.Dst, m.Dst) {
		t.Fatal("header lost identity fields")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := Message{ID: 1, Dst: []GroupID{1, 2}, Payload: []byte("xy")}
	c := m.Clone()
	c.Dst[0] = 9
	c.Payload[0] = 'z'
	if m.Dst[0] == 9 || m.Payload[0] == 'z' {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestNormalizeDst(t *testing.T) {
	tests := []struct {
		in, want []GroupID
	}{
		{nil, nil},
		{[]GroupID{}, nil},
		{[]GroupID{3}, []GroupID{3}},
		{[]GroupID{3, 1, 2}, []GroupID{1, 2, 3}},
		{[]GroupID{2, 2, 1, 1}, []GroupID{1, 2}},
		{[]GroupID{5, 5, 5}, []GroupID{5}},
		{[]GroupID{12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, []GroupID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{[]GroupID{4, 3, 3, 2, 4, 1}, []GroupID{1, 2, 3, 4}},
	}
	for _, tt := range tests {
		in := append([]GroupID(nil), tt.in...)
		got := NormalizeDst(in)
		if len(got) == 0 && len(tt.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("NormalizeDst(%v) = %v, want %v", tt.in, got, tt.want)
		}
		if &got[0] != &in[0] {
			t.Errorf("NormalizeDst(%v) did not dedupe in place", tt.in)
		}
	}
	// Sorting a destination set is on every transaction's path: it must
	// not allocate (sort.Slice cost a closure and a reflect swapper).
	dst := make([]GroupID, 12)
	if n := testing.AllocsPerRun(100, func() {
		for i := range dst {
			dst[i] = GroupID(12 - i)
		}
		NormalizeDst(dst)
	}); n != 0 {
		t.Errorf("NormalizeDst allocates %v per call, want 0", n)
	}
}

func TestNormalizeDstProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		in := make([]GroupID, len(raw))
		for i, v := range raw {
			in[i] = GroupID(v%12) + 1
		}
		out := NormalizeDst(in)
		seen := make(map[GroupID]bool)
		for i, g := range out {
			if seen[g] {
				return false
			}
			seen[g] = true
			if i > 0 && out[i-1] >= g {
				return false
			}
		}
		// Every input group survives.
		for _, v := range raw {
			if !seen[GroupID(v%12)+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindStringAndPayload(t *testing.T) {
	kinds := []Kind{KindRequest, KindMsg, KindAck, KindNotif, KindTS, KindFwd, KindReply}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind name wrong")
	}
	payload := map[Kind]bool{KindRequest: true, KindMsg: true, KindFwd: true}
	for _, k := range kinds {
		if k.IsPayload() != payload[k] {
			t.Errorf("%s IsPayload = %v", k, k.IsPayload())
		}
	}
}

func TestHistDeltaEmpty(t *testing.T) {
	var nilDelta *HistDelta
	if !nilDelta.Empty() {
		t.Fatal("nil delta not empty")
	}
	if !(&HistDelta{}).Empty() {
		t.Fatal("zero delta not empty")
	}
	if (&HistDelta{Nodes: []HistNode{{ID: 1}}}).Empty() {
		t.Fatal("non-empty delta reported empty")
	}
}
