//go:build race

package core_test

func init() { raceBuild = true }
