//go:build !race

package vax

const raceEnabled = false
