/**
 * @file
 * Tests for the ControlLoop skeleton: the measure/control/actuate cycle
 * and the reference channel used for coordination.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/control/loop.h"

namespace {

using nps::ctl::ControlLoop;

/** A loop over a trivially controllable scalar plant. */
class ScalarLoop : public ControlLoop
{
  public:
    ScalarLoop() : ControlLoop("scalar") {}

    double plant = 0.0;
    std::vector<double> measured;

  protected:
    double
    measure() override
    {
        measured.push_back(plant);
        return plant;
    }

    double
    control(double error, double measurement) override
    {
        (void)measurement;
        return plant + 0.5 * error;
    }

    void actuate(double value) override { plant = value; }
};

TEST(ControlLoop, StepRunsCycle)
{
    ScalarLoop loop;
    loop.setReference(10.0);
    double u = loop.step();
    EXPECT_DOUBLE_EQ(u, 5.0);
    EXPECT_DOUBLE_EQ(loop.plant, 5.0);
    EXPECT_EQ(loop.steps(), 1u);
    EXPECT_DOUBLE_EQ(loop.lastMeasurement(), 0.0);
    EXPECT_DOUBLE_EQ(loop.lastError(), 10.0);
}

TEST(ControlLoop, ConvergesToReference)
{
    ScalarLoop loop;
    loop.setReference(10.0);
    for (int i = 0; i < 50; ++i)
        loop.step();
    EXPECT_NEAR(loop.plant, 10.0, 1e-6);
}

TEST(ControlLoop, ReferenceChannelRetargets)
{
    ScalarLoop loop;
    loop.setReference(4.0);
    for (int i = 0; i < 50; ++i)
        loop.step();
    EXPECT_NEAR(loop.plant, 4.0, 1e-6);
    // An outer controller re-targets the loop; it must follow.
    loop.setReference(-2.0);
    for (int i = 0; i < 50; ++i)
        loop.step();
    EXPECT_NEAR(loop.plant, -2.0, 1e-6);
    EXPECT_DOUBLE_EQ(loop.reference(), -2.0);
}

TEST(ControlLoop, ResetClearsHistoryKeepsReference)
{
    ScalarLoop loop;
    loop.setReference(3.0);
    loop.step();
    loop.reset();
    EXPECT_EQ(loop.steps(), 0u);
    EXPECT_DOUBLE_EQ(loop.lastError(), 0.0);
    EXPECT_DOUBLE_EQ(loop.reference(), 3.0);
}

TEST(ControlLoop, Name)
{
    ScalarLoop loop;
    EXPECT_EQ(loop.name(), "scalar");
}

} // namespace
