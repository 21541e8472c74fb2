package core

import "spatialhadoop/internal/rtree"

var oracle *rtree.Tree
