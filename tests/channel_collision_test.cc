#include "channel/collision.h"

#include <gtest/gtest.h>

#include "channel/noiseless.h"
#include "protocol/executor.h"
#include "tasks/bit_exchange.h"
#include "tasks/input_set.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(CollisionChannel, ValidatesParameters) {
  EXPECT_THROW(CollisionAsSilenceChannel(0.5), std::invalid_argument);
  EXPECT_NO_THROW(CollisionAsSilenceChannel(0.0));
}

TEST(CollisionChannel, LoneTransmitterHeardCollisionSilenced) {
  const CollisionAsSilenceChannel channel(0.0);
  Rng rng(1);
  std::vector<std::uint8_t> received(7, 0);
  channel.Deliver(0, received, rng);
  EXPECT_EQ(received[0], 0);
  channel.Deliver(1, received, rng);
  EXPECT_EQ(received[0], 1);
  channel.Deliver(2, received, rng);  // collision -> silence
  EXPECT_EQ(received[0], 0);
  channel.Deliver(7, received, rng);
  EXPECT_EQ(received[0], 0);
}

TEST(CollisionChannel, NoiseFlipsAtRate) {
  const CollisionAsSilenceChannel channel(0.2);
  Rng rng(2);
  std::vector<std::uint8_t> received(2, 0);
  int heard = 0;
  constexpr int kTrials = 60000;
  for (int t = 0; t < kTrials; ++t) {
    channel.Deliver(2, received, rng);  // clean value 0
    heard += received[0];
  }
  EXPECT_NEAR(static_cast<double>(heard) / kTrials, 0.2, 0.01);
}

TEST(CollisionChannel, ScheduledProtocolsAgreeWithBeepingModel) {
  // BitExchange never has two simultaneous beepers, so its executions on
  // the (noiseless) beeping and collision channels are identical.
  Rng rng(3);
  const BitExchangeInstance instance = SampleBitExchange(6, 7, rng);
  const auto protocol = MakeBitExchangeProtocol(instance);
  const NoiselessChannel beeping;
  const CollisionAsSilenceChannel collision(0.0);
  Rng r1(5);
  Rng r2(5);
  const ExecutionResult a = Execute(*protocol, beeping, r1);
  const ExecutionResult b = Execute(*protocol, collision, r2);
  EXPECT_EQ(a.transcripts, b.transcripts);
  EXPECT_TRUE(BitExchangeAllCorrect(instance, b.outputs));
}

TEST(CollisionChannel, SimultaneousBeepsBreakOrProtocols) {
  // InputSet with duplicate inputs relies on the OR: the duplicates'
  // shared round collides into silence, and the duplicated element
  // vanishes from every party's output.
  InputSetInstance instance;
  instance.inputs = {2, 2, 5};  // parties 0 and 1 collide in round 2
  const auto protocol = MakeInputSetProtocol(instance);
  Rng rng(4);
  const CollisionAsSilenceChannel collision(0.0);
  const ExecutionResult run = Execute(*protocol, collision, rng);
  EXPECT_FALSE(run.shared()[2]);  // the collision round reads silent
  EXPECT_TRUE(run.shared()[5]);   // the lone beeper still gets through
  EXPECT_FALSE(InputSetAllCorrect(instance, run.outputs));
}

TEST(CollisionChannel, UniqueInputsStillWork) {
  // With all-distinct inputs every beeping round has one transmitter and
  // the task survives on the collision channel.
  InputSetInstance instance;
  instance.inputs = {0, 3, 5};
  const auto protocol = MakeInputSetProtocol(instance);
  Rng rng(5);
  const CollisionAsSilenceChannel collision(0.0);
  const ExecutionResult run = Execute(*protocol, collision, rng);
  EXPECT_TRUE(InputSetAllCorrect(instance, run.outputs));
}

}  // namespace
}  // namespace noisybeeps
