package main

import (
	"math/rand"
	"testing"

	xpath "xpathcomplexity"
)

// handSite is a small auction site written out by hand, with its XML
// text, node count and answers computed by hand below.
func handSite() *site {
	s := &site{
		people: []person{
			{name: "Ada", city: "Vienna", card: 12},
			{name: "Kurt", city: "Leipzig", card: -1},
		},
		items: []item{
			{region: 0, quantity: 3, reserve: 40},
			{region: 2, quantity: 1, reserve: -1},
			{region: 0, quantity: 2, reserve: -1},
		},
		open: []openAuction{
			{seller: 0, item: 0, bids: []int{5, 2}, current: 27},
			{seller: 1, item: 1, current: 9},
		},
		closed: []closedAuction{{seller: 0, item: 2, price: 60}},
	}
	s.index()
	return s
}

const handXML = `<site><regions>` +
	`<europe><item id="i0"><name>item 0</name><quantity>3</quantity><reserve>40</reserve></item>` +
	`<item id="i2"><name>item 2</name><quantity>2</quantity></item></europe>` +
	`<namerica></namerica>` +
	`<asia><item id="i1"><name>item 1</name><quantity>1</quantity></item></asia>` +
	`</regions><people>` +
	`<person id="p0"><name>Ada</name><city>Vienna</city><creditcard>0012</creditcard></person>` +
	`<person id="p1"><name>Kurt</name><city>Leipzig</city></person>` +
	`</people><open_auctions>` +
	`<open_auction id="a0"><seller person="p0"/><itemref item="i0"/>` +
	`<bidder><increase>5</increase></bidder><bidder><increase>2</increase></bidder><current>27</current></open_auction>` +
	`<open_auction id="a1"><seller person="p1"/><itemref item="i1"/><current>9</current></open_auction>` +
	`</open_auctions><closed_auctions>` +
	`<closed_auction><seller person="p0"/><itemref item="i2"/><price>60</price></closed_auction>` +
	`</closed_auctions></site>`

// Nodes by hand: the root and 8 fixed elements (9); items 8+6+6 (20);
// persons 8+6 (14); open auctions 6+2·3+2 and 6+2 (22); one closed
// auction 7.
const handNodes = 9 + 20 + 14 + 22 + 7

// handAnswers are (family, constant, answer) triples computed by hand.
var handAnswers = []struct {
	family string
	konst  int
	want   answer
}{
	{"Q1", 0, answer{nodes: true, card: 2}}, // two bidders
	{"Q2", 0, answer{nodes: true, card: 1}}, // a0 has bids
	{"Q3", 0, answer{nodes: true, card: 2}}, // i0, i2 in europe
	{"Q4", 0, answer{nodes: true, card: 1}}, // Ada has a card
	{"Q5", 0, answer{nodes: true, card: 1}}, // a0
	{"Q6", 0, answer{nodes: true, card: 2}}, // i1, i2 have no reserve
	{"Q7", 0, answer{nodes: true, card: 1}}, // a0's first bid
	{"Q8", 0, answer{nodes: true, card: 0}}, // the last auction, a1, has no bids
	{"Q9", 0, answer{nodes: true, card: 1}}, // Ada lives in Vienna
	{"Q10", 100, answer{nodes: true, card: 0}},
	{"Q10", 26, answer{nodes: true, card: 1}}, // 27
	{"Q10", 9, answer{nodes: true, card: 1}},  // 27; 9 is not > 9
	{"Q10", 8, answer{nodes: true, card: 2}},
	{"Q11", 50, answer{nodes: true, card: 1}},
	{"Q11", 60, answer{nodes: true, card: 1}}, // >= is inclusive
	{"Q11", 61, answer{nodes: true, card: 0}},
	{"Q12", 0, answer{num: 1}},
	{"Q13", 0, answer{num: 60}},
	{"Q14", 0, answer{nodes: true, card: 1}}, // a1
	{"Q15", 1, answer{nodes: true, card: 1}}, // i0: quantity 3 with reserve
	{"Q15", 2, answer{nodes: true, card: 1}},
	{"Q15", 3, answer{nodes: true, card: 0}},
}

func familyIndex(t *testing.T, name string) int {
	for f, fam := range families {
		if fam.name == name {
			return f
		}
	}
	t.Fatalf("no family %s", name)
	return -1
}

func TestOracleHandWritten(t *testing.T) {
	s := handSite()
	if got := s.xml(); got != handXML {
		t.Errorf("xml:\n got %s\nwant %s", got, handXML)
	}
	if got := s.nodes(); got != handNodes {
		t.Errorf("nodes: got %d, want %d", got, handNodes)
	}
	for _, h := range handAnswers {
		if got := s.expect(familyIndex(t, h.family), h.konst); got != h.want {
			t.Errorf("%s(%d): oracle says %s, by hand %s", h.family, h.konst, got, h.want)
		}
	}
}

// TestHandAnswersXPath checks the hand-computed answers themselves
// against the XPath engine, so a slip in reading the query semantics
// cannot hide in both the oracle and the hand answers.
func TestHandAnswersXPath(t *testing.T) {
	doc, err := xpath.ParseDocumentString(handXML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != handNodes {
		t.Errorf("parsed nodes: got %d, want %d", doc.Size(), handNodes)
	}
	for _, h := range handAnswers {
		q := families[familyIndex(t, h.family)].query(h.konst)
		v, err := xpath.MustCompile(q).EvalRoot(doc)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := checkValue(v, h.want); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// TestOracleGenerated compares the oracle with the engine on generated
// sites of every workload shape, across constants.
func TestOracleGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sz := range []siteSize{{People: 5, Items: 8, MaxBids: 3}, corpusSite, churnSite} {
		for n := 0; n < 3; n++ {
			s := genSite(rng, sz)
			doc, err := xpath.ParseDocumentString(s.xml())
			if err != nil {
				t.Fatal(err)
			}
			if doc.Size() != s.nodes() {
				t.Errorf("nodes: parsed %d, oracle %d", doc.Size(), s.nodes())
			}
			for f, fam := range families {
				konsts := []int{fam.hot}
				if fam.hasConst() {
					konsts = append(konsts, 0, fam.domain/2, fam.domain-1)
				}
				for _, k := range konsts {
					v, err := xpath.MustCompile(fam.query(k)).EvalRoot(doc)
					if err != nil {
						t.Fatal(err)
					}
					if err := checkValue(v, s.expect(f, k)); err != nil {
						t.Errorf("%s: %v", fam.query(k), err)
					}
				}
			}
		}
	}
}

func TestServeMixMatchesFamilies(t *testing.T) {
	if _, err := weights(); err != nil {
		t.Fatal(err)
	}
}
