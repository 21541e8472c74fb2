package dfs

import "sync"

// ptsOnce was the decoded view a block kept of itself.
var ptsOnce sync.Once
