//go:build !race

package main

const smokeSlowdown = 1
