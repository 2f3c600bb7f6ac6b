package main

import (
	xpath "xpathcomplexity"
)

// workloadDef is one traffic mix: the documents it generates and the
// operation each client repeats.
type workloadDef struct {
	sizes []siteSize
	// columnarOdd loads every odd-numbered resident site with the
	// columnar backend.
	columnarOdd bool
	// freshConstants draws the constants of Q10, Q11 and Q15 per
	// request.
	freshConstants bool
	// perClient deals the sites out to the clients as private pools.
	perClient bool
	setup     func(b *bench) error
	op        func(b *bench, c *client) error
}

// Document sizes. An auction site of {People, Items, MaxBids} holds
// about 9 + 6.7·People + (14.2 + MaxBids)·Items nodes.
var (
	smallSite  = siteSize{People: 40, Items: 60, MaxBids: 4}
	mediumSite = siteSize{People: 120, Items: 180, MaxBids: 5}
	largeSite  = siteSize{People: 300, Items: 450, MaxBids: 6}
	corpusSite = siteSize{People: 30, Items: 50, MaxBids: 5}
	churnSite  = siteSize{People: 60, Items: 90, MaxBids: 5}
)

const (
	coldCorpus = 400 // resident documents in cold
	churnPool  = 3   // documents per client in churn (odd, so backends alternate per document)
)

func repeat(sz siteSize, n int) []siteSize {
	out := make([]siteSize, n)
	for i := range out {
		out[i] = sz
	}
	return out
}

var workloads = map[string]*workloadDef{
	// hot: three resident documents and the fixed serving mix; the
	// 45 (document, query) pairs fit the result cache, so the serving
	// path does the work.
	"hot": {
		sizes: []siteSize{smallSite, mediumSite, largeSite},
		setup: setupResident,
		op:    evalDraw,
	},
	// cold: a corpus far larger than the result cache, with fresh
	// constants in the value comparisons, so the engines do the work.
	"cold": {
		sizes:          repeat(corpusSite, coldCorpus),
		columnarOdd:    true,
		freshConstants: true,
		setup:          setupResident,
		op:             evalDraw,
	},
	// churn: load, evaluate the whole mix, delete; parsing, indexing and
	// invalidation do the work.
	"churn": {
		sizes:     repeat(churnSite, numClients*churnPool),
		perClient: true,
		setup:     setupChurn,
		op:        churnCycle,
	},
}

func setupResident(b *bench) error {
	if err := b.loadResident(); err != nil {
		return err
	}
	return b.warmResident()
}

// evalDraw is one hot or cold operation: one single-query eval request.
func evalDraw(b *bench, c *client) error {
	d := b.nextDraw(c.rng)
	c.famCount[d.family]++
	return b.evalOne(c, b.fps[d.site], b.sites[d.site], d.family, d.konst)
}

// setupChurn runs one cycle on every pool document.
func setupChurn(b *bench) error {
	for _, c := range b.clients {
		for range b.pools[c.id] {
			if err := churnCycle(b, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// mixQueries is the serving mix with its own constants.
func mixQueries() []string {
	qs := make([]string, numFamilies)
	for f, fam := range families {
		qs[f] = fam.query(fam.hot)
	}
	return qs
}

var churnQueries = mixQueries()

// churnCycle is one churn operation: load the client's next pool
// document (alternating pointer and columnar), evaluate the whole mix
// against it in one request, and delete it.
func churnCycle(b *bench, c *client) error {
	pool := b.pools[c.id]
	i := pool[c.cycle%len(pool)]
	backend := xpath.BackendPointer
	if c.cycle%2 == 1 {
		backend = xpath.BackendColumnar
	}
	c.cycle++
	s := b.sites[i]
	fp, err := c.load(b.xml[i], backend, s.nodes())
	if err != nil {
		return err
	}
	res, err := c.evalRequest(fp, churnQueries)
	if err != nil {
		return err
	}
	for f := range res {
		c.famCount[f]++
		if err := check(res[f], s.expect(f, families[f].hot)); err != nil {
			c.mismatch("%v", err)
		}
	}
	return c.drop(fp)
}
