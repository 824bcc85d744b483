//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package faultinject

import "errors"

// Lock implements FS where the platform has no flock(2): it always fails
// with errors.ErrUnsupported.
func (osFS) Lock(name string) (File, error) { return nil, errors.ErrUnsupported }
