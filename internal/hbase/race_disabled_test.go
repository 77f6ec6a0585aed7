//go:build !race

package hbase

const raceEnabled = false
