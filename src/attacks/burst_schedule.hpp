// The attackers' shared timetable: every injector fires its bursts (or
// beacons, rounds, transmissions) at a fixed cadence from a start time.
#pragma once

#include "sim/world.hpp"

namespace kalis::attacks {

/// Schedules `fire(node, i)` at `first + i * interval` for every i below
/// `count`, in index order. Each event gets a fresh handle to the node.
template <typename Fire>
void scheduleBursts(sim::NodeHandle& node, SimTime first, Duration interval,
                    std::size_t count, Fire fire) {
  sim::World& world = node.world();
  const NodeId id = node.id();
  for (std::size_t i = 0; i < count; ++i) {
    world.sim().at(first + i * interval, [&world, id, i, fire] {
      sim::NodeHandle h = world.handle(id);
      fire(h, i);
    });
  }
}

}  // namespace kalis::attacks
