package main

import (
	"crypto/sha256"
	"encoding/hex"
)

// storedDigests are the SHA-256 digests of the rendered reports for each
// workload and seed set. They change only when the model changes; a
// benchmark run whose output differs fails its check.
var storedDigests = map[string]string{
	"sweep/dev":     "2485643b8542e8f7ef9e0ad3ccaa581f615e564d3a95150345bf1c87d88122b5",
	"sweep/holdout": "4c5af2a06cf9e4e48ef5039e4fd4673f9b2b9edf1ce5f3282d8b2c447c632857",
	"metro/dev":     "a1ceb6d2a5b0d19e666313aee008cbdcc0d625e7abebe45d2a23cac7de438031",
	"metro/holdout": "9ffed84b46cb09bf668372233e15b87a2ae37a193ed9ff88deda168037ef1dc8",
}

// digest is the hex SHA-256 of text.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// digestMatches reports whether text renders to the stored digest want.
func digestMatches(want, text string) bool { return want != "" && digest(text) == want }

// checkDigest counts one output check: text must match the digest stored
// under key.
func checkDigest(r *run, key, text string) {
	want := storedDigests[key]
	r.check(digestMatches(want, text), "%s report digest %s, stored %q", key, digest(text), want)
}
