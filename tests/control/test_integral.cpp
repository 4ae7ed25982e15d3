/**
 * @file
 * Tests for the clamped integral controller.
 */

#include <gtest/gtest.h>

#include "common/control/integral.h"

namespace {

using nps::ctl::IntegralController;

TEST(IntegralController, UpdateAccumulates)
{
    IntegralController c(0.0, -10.0, 10.0);
    EXPECT_DOUBLE_EQ(c.update(1.0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(c.update(1.0, 2.0), 4.0);
    EXPECT_DOUBLE_EQ(c.update(0.5, -2.0), 3.0);
}

TEST(IntegralController, ClampsToRange)
{
    IntegralController c(0.0, -1.0, 1.0);
    c.update(1.0, 100.0);
    EXPECT_DOUBLE_EQ(c.value(), 1.0);
    EXPECT_TRUE(c.saturated());
    c.update(1.0, -300.0);
    EXPECT_DOUBLE_EQ(c.value(), -1.0);
    EXPECT_TRUE(c.saturated());
}

TEST(IntegralController, AntiWindup)
{
    // After saturating high, a single negative error must immediately
    // move the value (no windup to unwind).
    IntegralController c(0.0, 0.0, 1.0);
    for (int i = 0; i < 100; ++i)
        c.update(1.0, 5.0);
    EXPECT_DOUBLE_EQ(c.value(), 1.0);
    c.update(1.0, -0.25);
    EXPECT_DOUBLE_EQ(c.value(), 0.75);
}

TEST(IntegralController, InitialValueClamped)
{
    IntegralController c(5.0, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(c.value(), 1.0);
}

TEST(IntegralController, SetValueClamps)
{
    IntegralController c(0.5, 0.0, 1.0);
    c.setValue(-3.0);
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    c.setValue(0.7);
    EXPECT_DOUBLE_EQ(c.value(), 0.7);
    EXPECT_FALSE(c.saturated());
}

TEST(IntegralController, SetRangeReclamps)
{
    IntegralController c(0.9, 0.0, 1.0);
    c.setRange(0.0, 0.5);
    EXPECT_DOUBLE_EQ(c.value(), 0.5);
    EXPECT_DOUBLE_EQ(c.hi(), 0.5);
}

TEST(IntegralController, BadRangeDies)
{
    EXPECT_DEATH(IntegralController(0.0, 1.0, 0.0), "lo");
    IntegralController c(0.0, 0.0, 1.0);
    EXPECT_DEATH(c.setRange(2.0, 1.0), "lo");
}

} // namespace
