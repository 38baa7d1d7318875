//go:build !linux

package main

import "errors"

var errNoAffinity = errors.New("thread affinity is only implemented on linux")

func getAffinity(tid int, m *cpuMask) error { return errNoAffinity }

func setAffinity(tid int, m *cpuMask) error { return errNoAffinity }
