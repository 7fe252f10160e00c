//go:build !linux

package main

import "errors"

// The benchmark confines the system under test to one core with
// sched_setaffinity and reads worker CPU time from /proc: Linux only.
func onOneCore(bool) (int, func(), error) {
	return 0, nil, errors.New("the benchmark runs on Linux only")
}
