package depgraph

// CheckReferences exposes the oracle and closure cross-check to the
// external suite tests, which import packages that import depgraph.
var CheckReferences = checkReferences
