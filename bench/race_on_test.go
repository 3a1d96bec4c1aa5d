//go:build race

package main

// smokeSlowdown stretches the smoke test's passes: under the race detector
// ops take some ten times longer, and a pass needs 100 of them.
const smokeSlowdown = 10
