// Package workload generates realistic XML documents and query mixes in
// the style of the XMark auction benchmark, restricted to XPath 1.0.
//
// The paper's closing claim about pXPath is empirical in spirit: "we
// believe [it] contains most practical XPath queries". This package makes
// that testable: a realistic document workload whose queries are
// classified in the Figure 1 lattice — most land in the parallelizable
// LOGCFL fragments, with the exceptions (negation, aggregates) called out
// per query.
package workload

import (
	"fmt"
	"math/rand"

	"xpathcomplexity/internal/fragment"
	xmltree "xpathcomplexity/internal/xmltree"
)

// Config sizes the generated auction site.
type Config struct {
	// People is the number of registered persons.
	People int
	// Items is the number of auctioned items.
	Items int
	// MaxBids bounds the bids per open auction.
	MaxBids int
}

// Auction generates an XMark-style auction document: a site with people,
// regional items, and open/closed auctions cross-referencing both.
func Auction(rng *rand.Rand, cfg Config) *xmltree.Document {
	if cfg.People < 1 {
		cfg.People = 20
	}
	if cfg.Items < 1 {
		cfg.Items = 30
	}
	if cfg.MaxBids < 1 {
		cfg.MaxBids = 5
	}
	names := []string{"Ada", "Erwin", "Grace", "Kurt", "Rozsa", "Alan", "Emmy", "Paul"}
	cities := []string{"Vienna", "Edinburgh", "Budapest", "Leipzig"}
	regions := []string{"europe", "namerica", "asia"}

	people := xmltree.Elem("people")
	for i := 0; i < cfg.People; i++ {
		person := xmltree.Elem("person",
			xmltree.Elem("name", xmltree.Text(names[rng.Intn(len(names))])),
			xmltree.Elem("city", xmltree.Text(cities[rng.Intn(len(cities))])),
		)
		person.Attrs = append(person.Attrs, xmltree.Attr("id", fmt.Sprintf("p%d", i)))
		if rng.Intn(3) == 0 {
			person.Children = append(person.Children,
				xmltree.Elem("creditcard", xmltree.Text(fmt.Sprintf("%04d", rng.Intn(10000)))))
		}
		people.Children = append(people.Children, person)
	}

	regionEls := map[string]*xmltree.Node{}
	regionsEl := xmltree.Elem("regions")
	for _, r := range regions {
		el := xmltree.Elem(r)
		regionEls[r] = el
		regionsEl.Children = append(regionsEl.Children, el)
	}
	for i := 0; i < cfg.Items; i++ {
		item := xmltree.Elem("item",
			xmltree.Elem("name", xmltree.Text(fmt.Sprintf("item %d", i))),
			xmltree.Elem("quantity", xmltree.Text(fmt.Sprint(1+rng.Intn(5)))),
		)
		item.Attrs = append(item.Attrs, xmltree.Attr("id", fmt.Sprintf("i%d", i)))
		if rng.Intn(4) == 0 {
			item.Children = append(item.Children, xmltree.Elem("reserve", xmltree.Text(fmt.Sprint(10+rng.Intn(90)))))
		}
		region := regions[rng.Intn(len(regions))]
		regionEls[region].Children = append(regionEls[region].Children, item)
	}

	open := xmltree.Elem("open_auctions")
	closed := xmltree.Elem("closed_auctions")
	for i := 0; i < cfg.Items; i++ {
		sellerRef := xmltree.Elem("seller")
		sellerRef.Attrs = append(sellerRef.Attrs, xmltree.Attr("person", fmt.Sprintf("p%d", rng.Intn(cfg.People))))
		itemRef := xmltree.Elem("itemref")
		itemRef.Attrs = append(itemRef.Attrs, xmltree.Attr("item", fmt.Sprintf("i%d", i)))
		if rng.Intn(3) == 0 {
			price := xmltree.Elem("price", xmltree.Text(fmt.Sprint(5+rng.Intn(200))))
			ca := xmltree.Elem("closed_auction", sellerRef, itemRef, price)
			closed.Children = append(closed.Children, ca)
			continue
		}
		oa := xmltree.Elem("open_auction", sellerRef, itemRef)
		oa.Attrs = append(oa.Attrs, xmltree.Attr("id", fmt.Sprintf("a%d", i)))
		cur := 5 + rng.Intn(80)
		// A fifth of the auctions have no bids yet (Q14's target).
		nBids := rng.Intn(cfg.MaxBids + 1)
		for b := 0; b < nBids; b++ {
			cur += 1 + rng.Intn(15)
			bidder := xmltree.Elem("bidder",
				xmltree.Elem("increase", xmltree.Text(fmt.Sprint(1+rng.Intn(10)))))
			oa.Children = append(oa.Children, bidder)
		}
		oa.Children = append(oa.Children, xmltree.Elem("current", xmltree.Text(fmt.Sprint(cur))))
		open.Children = append(open.Children, oa)
	}

	site := xmltree.Elem("site", regionsEl, people, open, closed)
	return xmltree.NewDocument(site)
}

// Query is one workload query with its expected fragment.
type Query struct {
	// Name identifies the query (XMark-style Qn).
	Name string
	// Text is the XPath source.
	Text string
	// WantFragment is the expected Figure 1 classification.
	WantFragment fragment.Fragment
	// Comment explains what the query models.
	Comment string
}

// ServeQuery is one entry of the serving mix: a workload query plus its
// relative request weight.
type ServeQuery struct {
	Query
	// Weight is the query's relative share of serving traffic.
	Weight int
}

// ServeMix returns the query mix the xpathd load generator draws from:
// cheap navigation dominates (the cache-friendly head of real traffic),
// predicate and value-comparison queries form the body, and aggregates
// the expensive tail — roughly the shape of the XMark read mix.
func ServeMix() []ServeQuery {
	var mix []ServeQuery
	weights := map[string]int{
		"Q1": 20, "Q3": 20, // navigation head
		"Q2": 10, "Q4": 10, "Q5": 8, // structural predicates
		"Q6": 5, "Q14": 3, // negation
		"Q7": 5, "Q8": 2, // positional
		"Q9": 6, "Q10": 5, "Q11": 3, "Q15": 3, // value comparisons
		"Q12": 2, "Q13": 2, // aggregates
	}
	for _, q := range Queries() {
		if w := weights[q.Name]; w > 0 {
			mix = append(mix, ServeQuery{Query: q, Weight: w})
		}
	}
	return mix
}

// Queries returns the workload query mix with expected classifications.
func Queries() []Query {
	return []Query{
		{"Q1", "/site/open_auctions/open_auction/bidder",
			fragment.PF, "all bidders (navigation only)"},
		{"Q2", "//open_auction[bidder]/current",
			fragment.PositiveCore, "current price of auctions with bids"},
		{"Q3", "/site/regions/europe/item/name",
			fragment.PF, "names of European items"},
		{"Q4", "//person[creditcard]/name",
			fragment.PositiveCore, "names of persons with registered cards"},
		{"Q5", "//open_auction[bidder[increase]]/itemref",
			fragment.PositiveCore, "items with real bidding activity"},
		{"Q6", "//item[not(reserve)]/name",
			fragment.Core, "items without a reserve price (negation)"},
		{"Q7", "//open_auction/bidder[1]/increase",
			fragment.PWF, "first bid of every auction (positional)"},
		{"Q8", "//open_auction[bidder and position() = last()]",
			fragment.PWF, "the last listed auction with bids"},
		{"Q9", "//person[city = 'Vienna']/name",
			fragment.PXPath, "persons in Vienna (string comparison)"},
		{"Q10", "//open_auction[current > 100]",
			fragment.PXPath, "expensive auctions (value comparison)"},
		{"Q11", "//closed_auction[price >= 50]/itemref",
			fragment.PXPath, "items sold above 50"},
		{"Q12", "count(//open_auction[bidder])",
			fragment.XPath, "how many auctions have bids (aggregate)"},
		{"Q13", "sum(//closed_auction/price)",
			fragment.XPath, "total closed-auction volume (aggregate)"},
		{"Q14", "//open_auction[not(bidder)][current]",
			fragment.Core, "stale auctions (negation + iterated predicates)"},
		{"Q15", "//item[quantity > 1 and reserve]/name",
			fragment.PXPath, "multi-quantity items with reserve"},
	}
}
