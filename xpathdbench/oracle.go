package main

// The correctness oracle. Every auction document the benchmark serves is
// generated here as plain records, written out as XML text, and every
// expected answer is computed from those records by counting — never by
// an engine of the program under test. The program only ever sees the
// XML text and the query text.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"xpathcomplexity/internal/workload"
)

// siteSize shapes one generated auction site.
type siteSize struct {
	People, Items, MaxBids int
}

type person struct {
	name, city string
	card       int // -1: no creditcard element
}

type item struct {
	region   int // index into regionNames
	quantity int
	reserve  int // -1: no reserve element
}

type openAuction struct {
	seller, item int
	bids         []int // increases, in bid order
	current      int
}

type closedAuction struct {
	seller, item, price int
}

// site is one auction document as records.
type site struct {
	people []person
	items  []item
	open   []openAuction
	closed []closedAuction

	// Sorted value columns and fixed-query answers, filled by index().
	currents   []int // open_auction/current
	prices     []int // closed_auction/price
	reserveQty []int // item/quantity of items with a reserve
	fixed      [numFamilies]answer
}

var (
	personNames = []string{"Ada", "Erwin", "Grace", "Kurt", "Rozsa", "Alan", "Emmy", "Paul"}
	cityNames   = []string{"Vienna", "Edinburgh", "Budapest", "Leipzig"}
	regionNames = []string{"europe", "namerica", "asia"}
)

// genSite draws one auction site from rng, in the shape of the XMark
// auction documents the serving mix targets.
func genSite(rng *rand.Rand, sz siteSize) *site {
	s := &site{}
	for i := 0; i < sz.People; i++ {
		p := person{
			name: personNames[rng.Intn(len(personNames))],
			city: cityNames[rng.Intn(len(cityNames))],
			card: -1,
		}
		if rng.Intn(3) == 0 {
			p.card = rng.Intn(10000)
		}
		s.people = append(s.people, p)
	}
	for i := 0; i < sz.Items; i++ {
		it := item{quantity: 1 + rng.Intn(5), reserve: -1, region: rng.Intn(len(regionNames))}
		if rng.Intn(4) == 0 {
			it.reserve = 10 + rng.Intn(90)
		}
		s.items = append(s.items, it)
	}
	for i := 0; i < sz.Items; i++ {
		seller := rng.Intn(sz.People)
		if rng.Intn(3) == 0 {
			s.closed = append(s.closed, closedAuction{seller: seller, item: i, price: 5 + rng.Intn(200)})
			continue
		}
		oa := openAuction{seller: seller, item: i, current: 5 + rng.Intn(80)}
		for b := rng.Intn(sz.MaxBids + 1); b > 0; b-- {
			inc := 1 + rng.Intn(15)
			oa.current += inc
			oa.bids = append(oa.bids, inc)
		}
		s.open = append(s.open, oa)
	}
	s.index()
	return s
}

// xml writes the site as XML text, without whitespace-only text nodes.
func (s *site) xml() string {
	var b strings.Builder
	b.WriteString("<site><regions>")
	for r, region := range regionNames {
		b.WriteString("<" + region + ">")
		for i, it := range s.items {
			if it.region != r {
				continue
			}
			fmt.Fprintf(&b, `<item id="i%d"><name>item %d</name><quantity>%d</quantity>`, i, i, it.quantity)
			if it.reserve >= 0 {
				fmt.Fprintf(&b, "<reserve>%d</reserve>", it.reserve)
			}
			b.WriteString("</item>")
		}
		b.WriteString("</" + region + ">")
	}
	b.WriteString("</regions><people>")
	for i, p := range s.people {
		fmt.Fprintf(&b, `<person id="p%d"><name>%s</name><city>%s</city>`, i, p.name, p.city)
		if p.card >= 0 {
			fmt.Fprintf(&b, "<creditcard>%04d</creditcard>", p.card)
		}
		b.WriteString("</person>")
	}
	b.WriteString("</people><open_auctions>")
	for _, oa := range s.open {
		fmt.Fprintf(&b, `<open_auction id="a%d"><seller person="p%d"/><itemref item="i%d"/>`, oa.item, oa.seller, oa.item)
		for _, inc := range oa.bids {
			fmt.Fprintf(&b, "<bidder><increase>%d</increase></bidder>", inc)
		}
		fmt.Fprintf(&b, "<current>%d</current></open_auction>", oa.current)
	}
	b.WriteString("</open_auctions><closed_auctions>")
	for _, ca := range s.closed {
		fmt.Fprintf(&b, `<closed_auction><seller person="p%d"/><itemref item="i%d"/><price>%d</price></closed_auction>`,
			ca.seller, ca.item, ca.price)
	}
	b.WriteString("</closed_auctions></site>")
	return b.String()
}

// nodes is the XPath data-model node count of the XML text: the root,
// elements, attributes and text nodes.
func (s *site) nodes() int {
	// root, site, regions, three region elements, people, open_auctions,
	// closed_auctions
	n := 9
	for _, p := range s.people {
		n += 6 // person, @id, name, text, city, text
		if p.card >= 0 {
			n += 2
		}
	}
	for _, it := range s.items {
		n += 6 // item, @id, name, text, quantity, text
		if it.reserve >= 0 {
			n += 2
		}
	}
	for _, oa := range s.open {
		// open_auction, @id, seller, @person, itemref, @item, current, text
		n += 8 + 3*len(oa.bids) // bidder, increase, text
	}
	return n + 7*len(s.closed) // closed_auction, seller, @person, itemref, @item, price, text
}

// family is one query family of the serving mix. Families whose text
// carries a constant (%d) draw it per request in the cold workload; the
// serving mix's own constant is hot.
type family struct {
	name   string
	text   string // fmt template; one %d for families with a constant
	hot    int    // the serving mix's constant
	domain int    // cold constants are drawn from [0, domain)
}

// The families, in the serving mix's order. Weights come from
// workload.ServeMix; weights pins the texts to it.
var families = []family{
	{name: "Q1", text: "/site/open_auctions/open_auction/bidder"},
	{name: "Q2", text: "//open_auction[bidder]/current"},
	{name: "Q3", text: "/site/regions/europe/item/name"},
	{name: "Q4", text: "//person[creditcard]/name"},
	{name: "Q5", text: "//open_auction[bidder[increase]]/itemref"},
	{name: "Q6", text: "//item[not(reserve)]/name"},
	{name: "Q7", text: "//open_auction/bidder[1]/increase"},
	{name: "Q8", text: "//open_auction[bidder and position() = last()]"},
	{name: "Q9", text: "//person[city = 'Vienna']/name"},
	{name: "Q10", text: "//open_auction[current > %d]", hot: 100, domain: 300},
	{name: "Q11", text: "//closed_auction[price >= %d]/itemref", hot: 50, domain: 220},
	{name: "Q12", text: "count(//open_auction[bidder])"},
	{name: "Q13", text: "sum(//closed_auction/price)"},
	{name: "Q14", text: "//open_auction[not(bidder)][current]"},
	{name: "Q15", text: "//item[quantity > %d and reserve]/name", hot: 1, domain: 6},
}

const numFamilies = 15

// hasConst reports whether the family's text carries a constant.
func (f family) hasConst() bool { return f.domain > 0 }

// query renders the family's text with constant c.
func (f family) query(c int) string {
	if !f.hasConst() {
		return f.text
	}
	return fmt.Sprintf(f.text, c)
}

// weights returns the serving-mix weight of every family, failing when
// the serving mix no longer matches the families this oracle answers.
func weights() ([numFamilies]int, error) {
	var w [numFamilies]int
	mix := workload.ServeMix()
	if len(mix) != numFamilies {
		return w, fmt.Errorf("serving mix has %d queries, the oracle answers %d", len(mix), numFamilies)
	}
	for i, f := range families {
		if mix[i].Name != f.name || mix[i].Text != f.query(f.hot) {
			return w, fmt.Errorf("serving mix query %d is %s %q, the oracle answers %s %q",
				i, mix[i].Name, mix[i].Text, f.name, f.query(f.hot))
		}
		w[i] = mix[i].Weight
	}
	return w, nil
}

// answer is an expected result: a node-set cardinality or a number.
type answer struct {
	nodes bool
	card  int
	num   float64
}

func (a answer) String() string {
	if a.nodes {
		return strconv.Itoa(a.card) + " nodes"
	}
	return strconv.FormatFloat(a.num, 'g', -1, 64)
}

// index fills the sorted value columns and the answers of the families
// without a constant.
func (s *site) index() {
	s.currents, s.prices, s.reserveQty = nil, nil, nil
	var bidders, withBids, europe, cards, noReserve, vienna, priceSum int
	for _, oa := range s.open {
		s.currents = append(s.currents, oa.current)
		bidders += len(oa.bids)
		if len(oa.bids) > 0 {
			withBids++
		}
	}
	for _, ca := range s.closed {
		s.prices = append(s.prices, ca.price)
		priceSum += ca.price
	}
	for _, it := range s.items {
		if it.region == 0 {
			europe++
		}
		if it.reserve < 0 {
			noReserve++
		} else {
			s.reserveQty = append(s.reserveQty, it.quantity)
		}
	}
	for _, p := range s.people {
		if p.card >= 0 {
			cards++
		}
		if p.city == "Vienna" {
			vienna++
		}
	}
	sort.Ints(s.currents)
	sort.Ints(s.prices)
	sort.Ints(s.reserveQty)
	lastWithBids := 0
	if n := len(s.open); n > 0 && len(s.open[n-1].bids) > 0 {
		lastWithBids = 1
	}
	set := func(c int) answer { return answer{nodes: true, card: c} }
	s.fixed = [numFamilies]answer{
		set(bidders),                // Q1 every bidder
		set(withBids),               // Q2 one current per auction with bids
		set(europe),                 // Q3 one name per European item
		set(cards),                  // Q4 one name per card holder
		set(withBids),               // Q5 every bidder has an increase
		set(noReserve),              // Q6
		set(withBids),               // Q7 the first bidder's increase
		set(lastWithBids),           // Q8 position() = last() among open_auction siblings
		set(vienna),                 // Q9
		{},                          // Q10 has a constant
		{},                          // Q11 has a constant
		{num: float64(withBids)},    // Q12
		{num: float64(priceSum)},    // Q13
		set(len(s.open) - withBids), // Q14
		{},                          // Q15 has a constant
	}
}

// countAbove returns how many sorted values are > c (or >= c when
// inclusive).
func countAbove(sorted []int, c int, inclusive bool) int {
	if inclusive {
		c--
	}
	return len(sorted) - sort.SearchInts(sorted, c+1)
}

// expect is the oracle: the answer family f with constant c has on s.
func (s *site) expect(f, c int) answer {
	switch families[f].name {
	case "Q10":
		return answer{nodes: true, card: countAbove(s.currents, c, false)}
	case "Q11":
		return answer{nodes: true, card: countAbove(s.prices, c, true)}
	case "Q15":
		return answer{nodes: true, card: countAbove(s.reserveQty, c, false)}
	}
	return s.fixed[f]
}
