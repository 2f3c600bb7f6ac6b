package xmltree

// OracleParse exposes the encoding/xml oracle to the external test
// package (BenchmarkParse's oracle arm).
var OracleParse = oracleParse
