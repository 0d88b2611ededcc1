package rclcpp

import "github.com/tracesynth/rostracer/internal/umem"

// Space returns the node's simulated process memory.
func (n *Node) Space() *umem.Space { return n.space }
