//go:build !race

package mcheck

const raceEnabled = false
