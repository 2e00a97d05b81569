package buildtags

// Mode reports which of the tagged files was compiled.
func Mode() string { return mode }
