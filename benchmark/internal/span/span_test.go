package span

import "testing"

func TestCoveredCountsOverlapOnce(t *testing.T) {
	got := Covered(0, 100, [][2]int64{{10, 30}, {20, 50}, {90, 120}, {-5, 5}})
	if got != 5+40+10 {
		t.Errorf("covered %d, want 55", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{Name: "client.op", ID: "a", StartNs: 0, EndNs: 100},
		{Name: "gateway.do", ID: "a", Parent: "client.op", StartNs: 10, EndNs: 90},
		{Name: "session.submit", ID: "a", Parent: "gateway.do", StartNs: 30, EndNs: 70},
		{Name: "gateway.do", ID: "b", Parent: "client.op", StartNs: 0, EndNs: 50}, // no child recorded
	}
	self := SelfTimes(spans, "gateway.do")
	if len(self) != 2 || self[0] != 40 || self[1] != 50 {
		t.Errorf("gateway.do self times %v, want [40 50]", self)
	}
	if self := SelfTimes(spans, "client.op"); len(self) != 1 || self[0] != 20 {
		t.Errorf("client.op self times %v, want [20]", self)
	}
}
