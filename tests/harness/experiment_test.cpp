#include "harness/experiment.hpp"

#include <gtest/gtest.h>

namespace moonshot {
namespace {

TEST(ProtocolTag, EveryProtocolRoundTripsThroughItsCliTag) {
  for (const ProtocolKind p :
       {ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
        ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon,
        ProtocolKind::kHotStuff}) {
    EXPECT_EQ(parse_protocol_cli_tag(protocol_cli_tag(p)), p) << protocol_cli_tag(p);
  }
}

TEST(ProtocolTag, AcceptsLongNames) {
  EXPECT_EQ(parse_protocol_cli_tag("simple"), ProtocolKind::kSimpleMoonshot);
  EXPECT_EQ(parse_protocol_cli_tag("pipelined"), ProtocolKind::kPipelinedMoonshot);
  EXPECT_EQ(parse_protocol_cli_tag("commit"), ProtocolKind::kCommitMoonshot);
  EXPECT_EQ(parse_protocol_cli_tag("jolteon"), ProtocolKind::kJolteon);
  EXPECT_EQ(parse_protocol_cli_tag("hotstuff"), ProtocolKind::kHotStuff);
}

TEST(ProtocolTag, RejectsUnknownTags) {
  EXPECT_FALSE(parse_protocol_cli_tag("").has_value());
  EXPECT_FALSE(parse_protocol_cli_tag("xm").has_value());
  EXPECT_FALSE(parse_protocol_cli_tag("PM").has_value());
  EXPECT_FALSE(parse_protocol_cli_tag("pm ").has_value());
}

}  // namespace
}  // namespace moonshot
