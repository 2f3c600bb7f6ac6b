package xmltree

// OracleParse exposes the encoding/xml oracle to the external test
// package (BenchmarkParse's oracle arm).
var OracleParse = oracleParse

// DiffIndexes, FuzzParseSeeds and StoreTestDocs expose the index
// comparison and two document sets to the external test package
// (TestIndexFlatArraysMirrorPointers).
var (
	DiffIndexes    = diffIndexes
	FuzzParseSeeds = fuzzParseSeeds
	StoreTestDocs  = storeTestDocs
)
