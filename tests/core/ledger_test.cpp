#include "core/ledger.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace mpleo::core {
namespace {

TEST(Ledger, TreasuryExistsAtStart) {
  Ledger ledger;
  EXPECT_EQ(ledger.account_count(), 1u);
  EXPECT_EQ(ledger.balance(Ledger::kTreasury), 0.0);
  EXPECT_EQ(ledger.account_name(Ledger::kTreasury), "treasury");
}

TEST(Ledger, OpenAccountsSequentially) {
  Ledger ledger;
  const AccountId a = ledger.open_account("alice");
  const AccountId b = ledger.open_account("bob");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(ledger.account_name(b), "bob");
  EXPECT_EQ(ledger.balance(a), 0.0);
}

TEST(Ledger, MintIncreasesTreasury) {
  Ledger ledger;
  ledger.mint(100.0);
  EXPECT_EQ(ledger.balance(Ledger::kTreasury), 100.0);
  EXPECT_EQ(ledger.total_minted(), 100.0);
  EXPECT_THROW(ledger.mint(-1.0), std::invalid_argument);
}

TEST(Ledger, TransferMovesValue) {
  Ledger ledger;
  const AccountId a = ledger.open_account("a");
  const AccountId b = ledger.open_account("b");
  ledger.mint(50.0);
  ASSERT_TRUE(ledger.reward(a, 30.0));
  ASSERT_TRUE(ledger.transfer(a, b, 12.5, "payment"));
  EXPECT_DOUBLE_EQ(ledger.balance(a), 17.5);
  EXPECT_DOUBLE_EQ(ledger.balance(b), 12.5);
}

TEST(Ledger, TransferRejectsOverdraft) {
  Ledger ledger;
  const AccountId a = ledger.open_account("a");
  const AccountId b = ledger.open_account("b");
  ledger.mint(10.0);
  ASSERT_TRUE(ledger.reward(a, 10.0));
  EXPECT_FALSE(ledger.transfer(a, b, 10.5));
  EXPECT_DOUBLE_EQ(ledger.balance(a), 10.0);  // unchanged
  EXPECT_DOUBLE_EQ(ledger.balance(b), 0.0);
}

TEST(Ledger, TransferRejectsUnknownAccounts) {
  Ledger ledger;
  ledger.mint(5.0);
  EXPECT_FALSE(ledger.transfer(Ledger::kTreasury, 42, 1.0));
  EXPECT_FALSE(ledger.transfer(42, Ledger::kTreasury, 1.0));
  EXPECT_THROW((void)ledger.transfer(Ledger::kTreasury, 1, -1.0), std::invalid_argument);
}

TEST(Ledger, RewardDrawsFromTreasury) {
  Ledger ledger;
  const AccountId a = ledger.open_account("a");
  EXPECT_FALSE(ledger.reward(a, 1.0));  // empty treasury
  ledger.mint(2.0);
  EXPECT_TRUE(ledger.reward(a, 1.5, "poc"));
  EXPECT_DOUBLE_EQ(ledger.balance(Ledger::kTreasury), 0.5);
}

TEST(Ledger, EntriesRecordHistory) {
  Ledger ledger;
  const AccountId a = ledger.open_account("a");
  ledger.mint(10.0, "genesis");
  ASSERT_TRUE(ledger.reward(a, 4.0, "hello"));
  ASSERT_EQ(ledger.entries().size(), 2u);
  EXPECT_EQ(ledger.entries()[0].memo, "genesis");
  EXPECT_EQ(ledger.entries()[1].from, Ledger::kTreasury);
  EXPECT_EQ(ledger.entries()[1].to, a);
  EXPECT_EQ(ledger.entries()[1].amount, 4.0);
  EXPECT_LT(ledger.entries()[0].sequence, ledger.entries()[1].sequence);
}

TEST(Ledger, BalanceOfUnknownAccountThrows) {
  Ledger ledger;
  EXPECT_THROW((void)ledger.balance(7), std::out_of_range);
  EXPECT_THROW((void)ledger.account_name(7), std::out_of_range);
}

TEST(Ledger, ConservationUnderRandomActivity) {
  // Property: sum of balances always equals total minted, regardless of the
  // transfer sequence (double-entry invariant).
  util::Xoshiro256PlusPlus rng(99);
  Ledger ledger;
  std::vector<AccountId> accounts;
  for (int i = 0; i < 8; ++i) accounts.push_back(ledger.open_account("acct"));
  ledger.mint(1000.0);

  for (int step = 0; step < 500; ++step) {
    const AccountId from =
        step % 7 == 0 ? Ledger::kTreasury
                      : accounts[rng.uniform_index(accounts.size())];
    const AccountId to = accounts[rng.uniform_index(accounts.size())];
    (void)ledger.transfer(from, to, rng.uniform(0.0, 50.0));
    ASSERT_NEAR(ledger.sum_of_balances(), ledger.total_minted(), 1e-6);
  }
  // And no account ever went negative.
  for (AccountId a : accounts) EXPECT_GE(ledger.balance(a), -1e-9);
}

TEST(Ledger, CreditReceiptPaysExactlyOncePerHash) {
  Ledger ledger;
  ledger.mint(10.0);
  const AccountId owner = ledger.open_account("owner");
  constexpr std::uint64_t kHash = 0xFEEDFACE;

  EXPECT_FALSE(ledger.receipt_credited(kHash));
  EXPECT_TRUE(ledger.credit_receipt(owner, 2.0, kHash, "poc"));
  EXPECT_TRUE(ledger.receipt_credited(kHash));
  EXPECT_DOUBLE_EQ(ledger.balance(owner), 2.0);

  // Resubmission of the same hash records nothing and pays nothing.
  EXPECT_FALSE(ledger.credit_receipt(owner, 2.0, kHash, "poc again"));
  EXPECT_DOUBLE_EQ(ledger.balance(owner), 2.0);
  EXPECT_EQ(ledger.credited_receipt_count(), 1u);

  // A different hash is a different receipt.
  EXPECT_TRUE(ledger.credit_receipt(owner, 2.0, kHash + 1, "poc"));
  EXPECT_DOUBLE_EQ(ledger.balance(owner), 4.0);
}

TEST(Ledger, CreditReceiptConsumesHashEvenWhenTreasuryCannotPay) {
  Ledger ledger;  // empty treasury
  const AccountId owner = ledger.open_account("owner");
  // First submission consumes the hash even though the payout fails.
  EXPECT_TRUE(ledger.credit_receipt(owner, 5.0, 42, "unfunded"));
  EXPECT_TRUE(ledger.receipt_credited(42));
  EXPECT_DOUBLE_EQ(ledger.balance(owner), 0.0);
  ledger.mint(10.0);
  // The receipt stays consumed: no retroactive double-claim window.
  EXPECT_FALSE(ledger.credit_receipt(owner, 5.0, 42, "retry"));
  EXPECT_DOUBLE_EQ(ledger.balance(owner), 0.0);
}

}  // namespace
}  // namespace mpleo::core
