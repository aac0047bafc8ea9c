// DeploymentConfig::validate is the one check every fleet runtime runs at
// construction: each rule rejects the config with std::invalid_argument
// naming its field, from DeploymentEngine, CityFleetEngine and FleetTracker
// alike.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/scenarios.h"
#include "src/deploy/city_fleet.h"
#include "src/deploy/deployment_engine.h"
#include "src/track/fleet_tracker.h"

namespace llama::deploy {
namespace {

/// Runs `build` and returns its std::invalid_argument message ("" when it
/// did not throw one).
std::string rejection(const std::function<void()>& build) {
  try {
    build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(DeploymentConfig, EveryRuntimeRejectsAnInvalidConfigNamingTheField) {
  struct Rule {
    const char* field;
    std::function<void(DeploymentConfig&)> break_config;
  };
  const std::vector<Rule> rules = {
      {"n_surfaces", [](DeploymentConfig& c) { c.n_surfaces = 0; }},
      {"layout.positions",
       [](DeploymentConfig& c) { c.layout.positions.pop_back(); }},
      {"sweep", [](DeploymentConfig& c) { c.sweep.steps_per_axis = 1; }},
      {"sweep",
       [](DeploymentConfig& c) { c.sweep.v_min = common::Voltage{-6.0}; }},
  };
  // Every base carries a valid layout, so the layout rule has positions to
  // drop. DeploymentEngine rejects any layout, but only after validate(),
  // so each rule still reaches it first.
  DeploymentConfig ring = core::dense_deployment_scenario(4, 2).config;
  ring.layout = core::city_scale_scenario(2, 1).config.layout;
  const DeploymentConfig city = core::city_scale_scenario(4, 8).config;
  struct Runtime {
    const char* name;
    DeploymentConfig base;
    std::function<void(const DeploymentConfig&)> build;
  };
  const std::vector<Runtime> runtimes = {
      {"DeploymentEngine", ring,
       [](const DeploymentConfig& c) { DeploymentEngine{c}; }},
      {"CityFleetEngine", city,
       [](const DeploymentConfig& c) { CityFleetEngine{c}; }},
      {"FleetTracker", city,
       [](const DeploymentConfig& c) {
         track::FleetConfig config;
         config.deployment = c;
         track::FleetTracker{config};
       }},
  };

  for (const Runtime& runtime : runtimes) {
    for (const Rule& rule : rules) {
      DeploymentConfig bad = runtime.base;
      rule.break_config(bad);
      const std::string what = rejection([&] { runtime.build(bad); });
      EXPECT_NE(what.find(rule.field), std::string::npos)
          << runtime.name << " on a bad " << rule.field << ": '" << what
          << "'";
      EXPECT_EQ(rejection([&] { bad.validate(); }), what) << runtime.name;
    }
  }
  // The bases themselves validate; the ring base's layout is then
  // DeploymentEngine's own rule to reject.
  EXPECT_NO_THROW(ring.validate());
  EXPECT_NO_THROW(city.validate());
  EXPECT_NE(rejection([&] { DeploymentEngine{ring}; }).find("layout"),
            std::string::npos);
}

}  // namespace
}  // namespace llama::deploy
